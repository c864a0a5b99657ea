/* hostprof: an LD_PRELOAD sampling profiler for boxes without `perf`.
 *
 * The constructor arms ITIMER_PROF (process CPU time, so every running
 * thread is sampled in proportion); the SIGPROF handler stores the raw
 * backtrace() frames of whichever thread took the signal; at exit the
 * samples are dumped to $PROF_OUT (default ./hostprof.out) after a copy of
 * /proc/self/maps, for sym.py to turn into source lines. The profiled
 * program is not rebuilt or touched. PROF_HZ sets the rate (default 1000).
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 65536
#define MAX_DEPTH 40

static void *frames[MAX_SAMPLES][MAX_DEPTH]; /* 20 MiB of BSS, paged in as used */
static int depth[MAX_SAMPLES];
static int taken;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        depth[i] = backtrace(frames[i], MAX_DEPTH);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    fputs("MAPS\n", out);
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("SAMPLES\n", out);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        for (int d = 0; d < depth[i]; d++)
            fprintf(out, "%lx ", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    /* backtrace() loads libgcc on first use, which allocates: do that here,
     * not inside the first signal. */
    void *warm[4];
    backtrace(warm, 4);
    atexit(dump);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    const char *hz_env = getenv("PROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz < 1 || hz > 10000)
        hz = 1000;
    long usec = 1000000 / hz;
    struct itimerval every = {{usec / 1000000, usec % 1000000}, {usec / 1000000, usec % 1000000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
