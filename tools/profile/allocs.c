/*
 * An allocation-site sampler, loaded with LD_PRELOAD.
 *
 * It wraps malloc, calloc and realloc. Every PERIOD-th call (97: a prime,
 * so periodic allocation patterns do not alias with it) walks the
 * frame-pointer chain from the wrapper and appends the return addresses to
 * a preallocated buffer. At exit it writes `allocs.<pid>.txt` in the working directory,
 * in sampler.c's format: a copy of /proc/self/maps, a line `--`, then one
 * sampled call per line as hexadecimal addresses, innermost first.
 * `symbolize.py --sites` attributes each to the code that asked for it.
 *
 * The calls are forwarded to glibc's own entry points (__libc_malloc and
 * friends), so the wrappers never recurse and need no dlsym. The walk
 * follows frames on the main thread's stack only, as in sampler.c: a
 * sampled call on another thread is counted as dropped. Code without
 * frame pointers (the prebuilt Rust standard library) hides its caller
 * from the walk.
 *
 * Build: gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o liballocs.so allocs.c
 */
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);

#define PERIOD 97
#define MAX_DEPTH 128
#define CAPACITY (8u << 20) /* u64 words: 64 MiB reserved, touched as used */

static uint64_t *buf;
static size_t used;
static uint64_t calls, samples, dropped;
static int recording;
static uintptr_t stack_lo, stack_hi;

/* Records the caller chain of one wrapper call, if it is a sampled one. */
static __attribute__((noinline)) void sample(void) {
    if (!__atomic_load_n(&recording, __ATOMIC_RELAXED) ||
        __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED) % PERIOD != 0)
        return;
    uint64_t rec[MAX_DEPTH];
    size_t n = 0;
    /* This function's frame, then the wrapper's: the first return
     * address worth keeping is the wrapper's, into its caller. */
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0);
    uintptr_t sp = fp;
    int skip = 1;
    while (n < MAX_DEPTH && fp >= sp && fp >= stack_lo && fp + 16 <= stack_hi &&
           (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        /* ret - 1 lies inside the call instruction, so it symbolizes to
         * the caller even when the call is the function's last. */
        if (skip)
            skip--;
        else
            rec[n++] = ret - 1;
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    if (n == 0) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > CAPACITY) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = n;
    memcpy(buf + at + 1, rec, n * sizeof rec[0]);
    __atomic_fetch_add(&samples, 1, __ATOMIC_RELAXED);
}

void *malloc(size_t size) {
    sample();
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    sample();
    return __libc_calloc(n, size);
}

void *realloc(void *ptr, size_t size) {
    sample();
    return __libc_realloc(ptr, size);
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

__attribute__((constructor)) static void allocs_start(void) {
    void *mem = mmap(NULL, CAPACITY * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        return;
    buf = mem;
    read_main_stack();
    __atomic_store_n(&recording, 1, __ATOMIC_RELEASE);
}

__attribute__((destructor)) static void allocs_stop(void) {
    /* Writing the file allocates; those calls are not the program's. */
    __atomic_store_n(&recording, 0, __ATOMIC_RELEASE);
    if (!buf)
        return;
    char path[64];
    snprintf(path, sizeof path, "allocs.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fputs("--\n", out);
    size_t end = used < CAPACITY ? used : CAPACITY;
    for (size_t i = 0; i < end && buf[i] > 0; i += buf[i] + 1) {
        for (uint64_t j = 0; j < buf[i]; j++)
            fprintf(out, j ? " %lx" : "%lx", (unsigned long)buf[i + 1 + j]);
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "allocs: %lu calls, 1 in %lu sampled: %lu samples (%lu dropped) -> %s\n",
            (unsigned long)calls, (unsigned long)PERIOD, (unsigned long)samples,
            (unsigned long)dropped, path);
}
