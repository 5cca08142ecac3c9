/**
 * @file
 * The one parser for SMITE_* environment knobs (table in
 * docs/OBSERVABILITY.md): switches go through envFlag(), counts and
 * intervals through envPositive().
 */

#ifndef SMITE_OBS_ENV_H
#define SMITE_OBS_ENV_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace smite::obs {

/** Unset or empty: @p fallback; exactly "0": false; else true. */
inline bool
envFlag(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || env[0] == '\0')
        return fallback;
    return !(env[0] == '0' && env[1] == '\0');
}

/**
 * A positive decimal integer that fits @p T, else @p fallback. A set
 * value that is not one is reported on stderr, so a typo never passes
 * for the default in silence.
 */
template <typename T>
T
envPositive(const char *name, T fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && n > 0 &&
        static_cast<unsigned long long>(n) <=
            static_cast<unsigned long long>(
                std::numeric_limits<T>::max()))
        return static_cast<T>(n);
    std::fprintf(stderr, "smite: %s='%s' invalid, using %s\n", name,
                 env, std::to_string(fallback).c_str());
    return fallback;
}

} // namespace smite::obs

#endif // SMITE_OBS_ENV_H
