/**
 * @file
 * The text pieces every JSON document writer shares: string escaping
 * and the number format. The stats, trace, time-series, result and
 * sweep documents all go through these two functions, so a name that
 * holds a quote, a backslash or a control character (a replayed
 * trace's path is part of its run label) still yields valid JSON.
 */

#ifndef NECPT_COMMON_JSON_HH
#define NECPT_COMMON_JSON_HH

#include <cstdio>
#include <string>

namespace necpt
{

/** @p in as the body of a JSON string: `"` and `\` get a backslash,
 *  bytes below 0x20 become `\u00XX`; every other byte is copied. */
inline std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** @p v as a JSON number with 12 significant digits (%.12g): every
 *  integer below 1e12 is written exactly. */
inline std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace necpt

#endif // NECPT_COMMON_JSON_HH
