/**
 * @file
 * The one numeric-option parser of the command-line tools: every
 * number a flag takes goes through parseNumber(), so bad text ends in
 * a ConfigError naming the flag (exit 1), never an uncaught
 * std::invalid_argument (abort).
 */

#ifndef NECPT_TOOLS_CLI_HH
#define NECPT_TOOLS_CLI_HH

#include <charconv>
#include <string>

#include "common/error.hh"

namespace necpt
{

/**
 * @p text, the value of command-line option @p option, as a T. The
 * whole text must be a decimal number that fits T: "abc", "4x", "-1"
 * for an unsigned T, or a value past T's range throw ConfigError.
 */
template <typename T>
T
parseNumber(const std::string &option, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [last, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        throw ConfigError(option + " value '" + text
                          + "' is out of range");
    if (ec != std::errc() || last != end)
        throw ConfigError(option + " expects a number, got '" + text
                          + "'");
    return value;
}

} // namespace necpt

#endif // NECPT_TOOLS_CLI_HH
