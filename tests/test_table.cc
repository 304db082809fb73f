/** @file The summary-table renderer: column widths, alignment, rows
 *  whose job did not succeed, and notes. */

#include <gtest/gtest.h>

#include "exec/table.hh"

namespace necpt
{

TEST(TableRenderer, SizesAlignsAndMarksFailedRows)
{
    Table table{"Demo",
                {"App"},
                {{"cycles", 0}, {"ratio", 3, "x"}, {"note"}},
                {{{"GUPS"}, {123456.0, 1.5, "short"}},
                 {{"BFS-long-name"}, {7.0, 12.25, "a longer note"}},
                 {{"SysBench"}, {JobStatus::Failed}},
                 {{"TC"}, {2.0, JobStatus::TimedOut, "never shown"}}},
                {"Paper:  kept   verbatim.", "second note"}};
    // Each column is as wide as its widest entry (a failed row's
    // label counts, its hidden cells do not); numbers and their
    // headers sit right, texts and their headers left; a row with a
    // status prints its label and the status once.
    const std::string expected =
        "=== Demo ===\n"
        "App            cycles    ratio  note\n"
        "GUPS           123456   1.500x  short\n"
        "BFS-long-name       7  12.250x  a longer note\n"
        "SysBench       (failed)\n"
        "TC             (timeout)\n"
        "\n"
        "Paper:  kept   verbatim.\n"
        "second note\n";
    EXPECT_EQ(renderTable(table), expected);
}

TEST(TableRenderer, OmitsEmptyTitleAndHeader)
{
    const Table table{"", {""}, {{"", 1}}, {{{"a"}, {0.3}}, {{"b"}, {10.0}}}};
    EXPECT_EQ(renderTable(table), "a   0.3\nb  10.0\n");
}

} // namespace necpt
