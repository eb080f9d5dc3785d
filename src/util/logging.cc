#include "logging.hh"

#include <cstdio>
#include <iostream>

namespace lt {

namespace {
LogLevel g_level = LogLevel::Inform;
} // namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    // _Exit, not exit: exit would run ~ThreadPool on the global pool,
    // whose workers are gone in a forked child and include the calling
    // thread when the fatal is raised on a worker. std::endl above
    // already flushed cerr.
    std::cout.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Inform)
        std::cout << "info: " << msg << std::endl;
}

void
debugImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Debug)
        std::cout << "debug: " << msg << std::endl;
}

} // namespace detail

} // namespace lt
