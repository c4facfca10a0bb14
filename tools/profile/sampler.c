/*
 * A SIGPROF sampling profiler, loaded with LD_PRELOAD.
 *
 * On every ITIMER_PROF tick (1 ms of process CPU time is asked for; the
 * kernel delivers at most one per scheduler tick) the handler walks
 * the frame-pointer chain of the interrupted thread and appends the
 * program counter and the return addresses to a preallocated buffer. At
 * exit it writes `profile.<pid>.txt` in the working directory: a copy of
 * /proc/self/maps, a line `--`, then one sample per line as hexadecimal
 * addresses, leaf first. `symbolize.py` turns that into shares.
 *
 * The walk only follows frames on the main thread's stack (the range of
 * the `[stack]` mapping, read at start-up), so it never reads unmapped
 * memory; samples taken on other threads keep their leaf only. Code built
 * without frame pointers (the prebuilt Rust standard library, libc) keeps
 * its own leaf samples but hides its caller from the walk.
 *
 * Build: gcc -O2 -shared -fPIC -o libsampler.so sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 128
#define CAPACITY (8u << 20) /* u64 words: 64 MiB reserved, touched as used */

static uint64_t *buf;
static size_t used;
static uint64_t samples, dropped;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    if (!buf || used + MAX_DEPTH + 1 > CAPACITY) {
        dropped++;
        return;
    }
    uint64_t *rec = buf + used;
    size_t n = 0;
    rec[1 + n++] = pc;
    int on_main_stack = sp >= stack_lo && sp < stack_hi;
    while (on_main_stack && n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi &&
           (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        /* ret - 1 lies inside the call instruction, so it symbolizes to
         * the caller even when the call is the function's last. */
        rec[1 + n++] = ret - 1;
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    rec[0] = n;
    used += n + 1;
    samples++;
}

static void read_main_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        if (strstr(line, "[stack]")) {
            unsigned long lo, hi;
            if (sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
                stack_lo = lo;
                stack_hi = hi;
            }
        }
    }
    fclose(maps);
    /* The stack grows down past the range seen now, as far as its rlimit;
     * only the top is fixed. */
    struct rlimit limit;
    rlim_t size = 64u << 20;
    if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur < size)
        size = limit.rlim_cur;
    if (stack_hi > size)
        stack_lo = stack_hi - size;
}

__attribute__((constructor)) static void sampler_start(void) {
    void *mem = mmap(NULL, CAPACITY * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        return;
    buf = mem;
    read_main_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (!buf)
        return;
    char path[64];
    snprintf(path, sizeof path, "profile.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("--\n", out);
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (uint64_t j = 0; j < buf[i]; j++)
            fprintf(out, j ? " %lx" : "%lx", (unsigned long)buf[i + 1 + j]);
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "sampler: %lu samples (%lu dropped) -> %s\n",
            (unsigned long)samples, (unsigned long)dropped, path);
}
