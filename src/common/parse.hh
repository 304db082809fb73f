/**
 * @file
 * The one parser of numbers and lists that arrive from outside the
 * program: command-line flags, the NECPT_* environment knobs, and the
 * fields of the churn and fault spec grammars. Bad text ends in a
 * ConfigError naming its source (exit 1 at the tools), never in a
 * silently wrapped or zeroed value or an uncaught exception.
 */

#ifndef NECPT_COMMON_PARSE_HH
#define NECPT_COMMON_PARSE_HH

#include <charconv>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"

namespace necpt
{

/**
 * @p text, the value of @p name (a flag, an environment variable or a
 * spec field), as a T in [@p lo, @p hi]. The whole text must be a
 * decimal number that fits T: "abc", "4x", "-1" for an unsigned T,
 * NaN, or a value outside the range throw ConfigError naming @p name.
 */
template <typename T>
T
parseNumber(const std::string &name, const std::string &text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [last, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        throw ConfigError(name + " value '" + text + "' is out of range");
    if (ec != std::errc() || last != end)
        throw ConfigError(name + " expects a number, got '" + text
                          + "'");
    if (!(value >= lo && value <= hi)) {
        auto show = [](T v) {
            if constexpr (std::is_floating_point_v<T>)
                return strfmt("%g", v);
            else
                return std::to_string(v);
        };
        throw ConfigError(
            hi == std::numeric_limits<T>::max()
                ? name + " must be at least " + show(lo) + ", got '"
                      + text + "'"
                : name + " must be in [" + show(lo) + ", " + show(hi)
                      + "], got '" + text + "'");
    }
    return value;
}

/** @p text cut at every @p sep; empty fields are kept. */
inline std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        const auto end = text.find(sep, start);
        if (end == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return parts;
}

} // namespace necpt

#endif // NECPT_COMMON_PARSE_HH
