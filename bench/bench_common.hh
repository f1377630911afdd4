/**
 * @file
 * Shared helpers for the reproduction harnesses: every bench binary
 * regenerates one paper table/figure (or extension study) and prints
 * it to stdout.
 */

#ifndef AW_BENCH_COMMON_HH
#define AW_BENCH_COMMON_HH

#include <cstdio>

/** Print a figure/table banner. */
inline void
banner(const char *title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n\n",
                title);
}

/**
 * Standard main: print the reproduction. The harnesses take no
 * arguments; any argument is a usage error (exit 1).
 */
#define AW_BENCH_MAIN(reproduce_fn)                                  \
    int main(int argc, char **argv)                                  \
    {                                                                \
        if (argc > 1) {                                              \
            std::fprintf(stderr, "usage: %s\n", argv[0]);            \
            return 1;                                                \
        }                                                            \
        reproduce_fn();                                              \
        return 0;                                                    \
    }

#endif // AW_BENCH_COMMON_HH
