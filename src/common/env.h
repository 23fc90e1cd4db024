/**
 * @file
 * Strict parsers for the numbers a program reads at its edge: command
 * line values and BH_* environment knobs. The library itself reads no
 * environment except the BH_LOG gate (common/log.h); bh_bench parses its
 * flags and knobs with these and passes the values down explicitly.
 */
#pragma once

#include <cstdint>

namespace bh {

/**
 * Strictly parse @p text as an unsigned decimal integer (zero allowed —
 * parseSwitch() relies on "0" parsing). Rejects empty strings, signs (so
 * "-5" cannot wrap to a huge unsigned), non-digit characters including
 * trailing garbage ("20k"), and values that overflow std::uint64_t.
 * @return true and stores into @p out on success.
 */
inline bool
parseU64Strict(const char *text, std::uint64_t *out)
{
    if (text == nullptr || *text == '\0')
        return false;
    std::uint64_t value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false; // Overflow.
        value = value * 10 + digit;
    }
    *out = value;
    return true;
}

/**
 * Strictly parse an on/off switch (BH_FULL, BH_DENSE_TICK, BH_LOG):
 * null (unset), empty and "0" are off, any other unsigned decimal is on,
 * and anything else ("yes", "-5", "0x1") is an error that leaves @p on
 * off.
 */
inline bool
parseSwitch(const char *text, bool *on)
{
    *on = false;
    if (text == nullptr || *text == '\0')
        return true;
    std::uint64_t value = 0;
    if (!parseU64Strict(text, &value))
        return false;
    *on = value != 0;
    return true;
}

/**
 * Strictly parse @p text as a positive decimal integer. Rejects empty
 * strings, signs (so "-5" cannot wrap to a huge unsigned), non-digit
 * characters, zero, and values that overflow std::uint64_t.
 * @return true and stores into @p out on success.
 */
inline bool
parsePositiveU64(const char *text, std::uint64_t *out)
{
    std::uint64_t value = 0;
    if (!parseU64Strict(text, &value) || value == 0)
        return false;
    *out = value;
    return true;
}

} // namespace bh
