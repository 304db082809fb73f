/**
 * @file
 * Summary tables: what a sweep grid's summary returns, and the one
 * renderer that prints them. A summary only decides what goes in
 * which cell; column widths, alignment and the marker of a row whose
 * job did not succeed are the renderer's, so every grid's stdout has
 * one layout.
 */

#ifndef NECPT_EXEC_TABLE_HH
#define NECPT_EXEC_TABLE_HH

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "exec/result_sink.hh"

namespace necpt
{

/** A value column: its header, the digits printed after the decimal
 *  point, and a suffix printed right after each number ("x", "MB",
 *  " GB"). */
struct Column
{
    std::string header;
    int precision = 3;
    std::string unit = "";
};

/** One value: a number, a text, or the status (Failed or TimedOut) of
 *  the job whose result it would show. */
using Cell = std::variant<double, std::string, JobStatus>;

struct Row
{
    std::vector<std::string> labels; //!< one per label column
    /** One per value column. A row holding a status prints as its
     *  labels plus "(failed)" or "(timeout)", so it may hold just the
     *  status. */
    std::vector<Cell> cells;
};

struct Table
{
    std::string title;                      //!< "=== title ===" if set
    std::vector<std::string> label_headers; //!< the left-hand columns
    std::vector<Column> columns;            //!< the value columns
    std::vector<Row> rows = {};
    std::vector<std::string> notes = {};    //!< printed verbatim below
};

/** The outputs of the jobs a row reads, in the order asked for. */
using Outputs = std::vector<const JobOutput *>;

/** The row @p labels: cells() of the outputs of the jobs @p keys when
 *  every one succeeded, else the first failed job's status. */
Row rowOf(const ResultSink &sink, std::vector<std::string> labels,
          const std::vector<std::string> &keys,
          const std::function<std::vector<Cell>(const Outputs &)> &cells);

/**
 * @p table as text. Every column is as wide as its widest entry and
 * columns are two spaces apart. Numbers are right-aligned and texts
 * left-aligned; a header sits on the side its column's numbers do.
 */
std::string renderTable(const Table &table);

/** Print every table of @p tables to stdout, each after a blank line. */
void printTables(const std::vector<Table> &tables);

} // namespace necpt

#endif // NECPT_EXEC_TABLE_HH
