#include "exec/table.hh"

#include <algorithm>
#include <cstdio>

#include "common/error.hh"
#include "common/log.hh"

namespace necpt
{

namespace
{

/** The status a row prints instead of its values, or Ok. */
JobStatus
rowStatus(const Row &row)
{
    for (const Cell &cell : row.cells)
        if (const JobStatus *status = std::get_if<JobStatus>(&cell))
            return *status;
    return JobStatus::Ok;
}

std::string
cellText(const Cell &cell, const Column &column)
{
    if (const double *v = std::get_if<double>(&cell))
        return strfmt("%.*f", column.precision, *v) + column.unit;
    return std::get<std::string>(cell);
}

/** One printed line: fields padded to their widths, two spaces apart,
 *  trailing blanks dropped. */
struct Line
{
    std::string text;

    void
    add(const std::string &field, std::size_t width, bool right = false)
    {
        if (!text.empty())
            text += "  ";
        const std::string fill(std::max(width, field.size()) - field.size(),
                               ' ');
        text += right ? fill + field : field + fill;
    }

    std::string
    str() const
    {
        return text.substr(0, text.find_last_not_of(' ') + 1) + "\n";
    }
};

} // namespace

Row
rowOf(const ResultSink &sink, std::vector<std::string> labels,
      const std::vector<std::string> &keys,
      const std::function<std::vector<Cell>(const Outputs &)> &cells)
{
    const JobStatus status = sink.firstFailure(keys);
    if (status != JobStatus::Ok)
        return {std::move(labels), {status}};
    Outputs outputs;
    for (const std::string &key : keys)
        outputs.push_back(&sink.find(key)->out);
    return {std::move(labels), cells(outputs)};
}

std::string
renderTable(const Table &table)
{
    const std::size_t labels = table.label_headers.size();
    std::vector<std::size_t> width;
    for (const std::string &header : table.label_headers)
        width.push_back(header.size());
    for (const Column &column : table.columns)
        width.push_back(column.header.size());
    std::vector<bool> numeric(table.columns.size(), false);
    for (const Row &row : table.rows) {
        NECPT_ASSERT(row.labels.size() == labels);
        for (std::size_t i = 0; i < labels; ++i)
            width[i] = std::max(width[i], row.labels[i].size());
        if (rowStatus(row) != JobStatus::Ok)
            continue;
        NECPT_ASSERT(row.cells.size() == table.columns.size());
        for (std::size_t j = 0; j < row.cells.size(); ++j) {
            const std::string text = cellText(row.cells[j], table.columns[j]);
            width[labels + j] = std::max(width[labels + j], text.size());
            numeric[j] = numeric[j]
                || std::holds_alternative<double>(row.cells[j]);
        }
    }

    std::string out;
    if (!table.title.empty())
        out += "=== " + table.title + " ===\n";
    Line header;
    for (std::size_t i = 0; i < labels; ++i)
        header.add(table.label_headers[i], width[i]);
    for (std::size_t j = 0; j < table.columns.size(); ++j)
        header.add(table.columns[j].header, width[labels + j], numeric[j]);
    if (header.str() != "\n")
        out += header.str();
    for (const Row &row : table.rows) {
        Line line;
        for (std::size_t i = 0; i < labels; ++i)
            line.add(row.labels[i], width[i]);
        const JobStatus status = rowStatus(row);
        if (status != JobStatus::Ok)
            line.add(std::string("(") + jobStatusName(status) + ")", 0);
        else
            for (std::size_t j = 0; j < row.cells.size(); ++j)
                line.add(cellText(row.cells[j], table.columns[j]),
                         width[labels + j],
                         std::holds_alternative<double>(row.cells[j]));
        out += line.str();
    }
    if (!table.notes.empty())
        out += "\n";
    for (const std::string &note : table.notes)
        out += note + "\n";
    return out;
}

void
printTables(const std::vector<Table> &tables)
{
    for (const Table &table : tables)
        std::printf("\n%s", renderTable(table).c_str());
}

} // namespace necpt
