/*
 * A sampling profiler to preload into any process of this workspace.
 *
 * Every 2 ms of CPU time the process uses (ITIMER_PROF, all threads
 * together) the kernel sends SIGPROF to whichever thread is running; the
 * handler stores that thread's instruction pointer in a fixed buffer.
 * At exit the samples go to `sigprof.<pid>.rips` (one hex address a line)
 * and a copy of `/proc/self/maps` to `sigprof.<pid>.maps`, both in the
 * working directory. `book.py` turns the pair into a profile.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so tools/sigprof/sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so <program> <args>
 *
 * Nothing is resolved while the program runs, and the handler does one
 * atomic increment and one store, so it is async-signal-safe. A process
 * that dies by a signal writes nothing; one that calls `exit` (or returns
 * from `main`) does.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 2000
#define MAX_SAMPLES (1u << 22)

static uintptr_t samples[MAX_SAMPLES];
static unsigned taken;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = uctx;
#if defined(__x86_64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof: no instruction pointer for this architecture"
#endif
    unsigned i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ip;
}

__attribute__((constructor)) static void sigprof_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    unsigned n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;

    char path[64];
    snprintf(path, sizeof path, "sigprof.%d.rips", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    for (unsigned i = 0; i < n; i++)
        fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fclose(out);

    snprintf(path, sizeof path, "sigprof.%d.maps", (int)getpid());
    FILE *maps = fopen("/proc/self/maps", "r");
    out = fopen(path, "w");
    if (maps && out) {
        char buf[4096];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, maps)) > 0)
            fwrite(buf, 1, got, out);
    }
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
}
