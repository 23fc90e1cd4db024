/**
 * @file
 * Minimal fatal/panic helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (simulator bugs); fatal() is
 * for user configuration errors. Both print to stderr and abort/exit, so
 * they are acceptable in a library context where exceptions are not used on
 * hot paths.
 */
#pragma once

#include <cstdio>
#include <cstdlib>

#include "common/env.h"

namespace bh {

[[noreturn]] inline void
panicImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg, file, line);
    std::abort();
}

[[noreturn]] inline void
fatalImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg, file, line);
    std::exit(1);
}

/**
 * True when BH_LOG is set non-zero (parseSwitch(); a malformed value
 * reads as off). Gates the opt-in verbose progress logging (BH_LOG()) —
 * store loads, sweep prefetch summaries — which stays silent by default
 * so bench output remains byte-comparable. The library's only
 * environment read: it changes what is printed, never a result.
 */
inline bool
verboseLogEnabled()
{
    static const bool enabled = [] {
        bool on = false;
        parseSwitch(std::getenv("BH_LOG"), &on);
        return on;
    }();
    return enabled;
}

} // namespace bh

/** Verbose progress line (stderr), enabled by BH_LOG=1. */
#define BH_LOG(...)                                                           \
    do {                                                                      \
        if (::bh::verboseLogEnabled()) {                                      \
            std::fprintf(stderr, "bh: " __VA_ARGS__);                         \
            std::fputc('\n', stderr);                                         \
        }                                                                     \
    } while (0)

/** Abort on simulator bug. */
#define BH_PANIC(msg) ::bh::panicImpl(__FILE__, __LINE__, (msg))

/** Exit on user configuration error. */
#define BH_FATAL(msg) ::bh::fatalImpl(__FILE__, __LINE__, (msg))

/** Invariant check that stays on in release builds. */
#define BH_ASSERT(cond, msg)                                                  \
    do {                                                                      \
        if (!(cond))                                                          \
            BH_PANIC(msg);                                                    \
    } while (0)
