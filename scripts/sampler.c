/*
 * A function-level sampling profiler for one process, loaded with
 * LD_PRELOAD by scripts/profile.sh (method: docs/PERF.md, "Measurement
 * notes"). The container has no perf and no gdb; this is the whole of
 * what a profile needs:
 *
 *   - a constructor arms setitimer(ITIMER_REAL) at 4 kHz and installs a
 *     SIGALRM handler (SA_SIGINFO | SA_RESTART);
 *   - the handler stores REG_RIP from the ucontext and walks the REG_RBP
 *     chain (the binary is built with force-frame-pointers), bounded by
 *     the stack and by MAX_DEPTH, into a buffer allocated up front;
 *   - the destructor maps the addresses into the executable (minus its
 *     load bias), looks each up in the `nm -C -n --defined-only` table
 *     named by SAMPLER_SYMS, and writes the top SAMPLER_TOP symbols by
 *     self time (the sampled instruction) and by inclusive time (the
 *     symbol anywhere on the chain) to SAMPLER_OUT, then one line of
 *     the process's getrusage(RUSAGE_SELF): peak RSS, minor and major
 *     faults, CPU time — read before the symbol table is loaded.
 *
 * x86-64 Linux only. Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#ifndef __x86_64__
#error "the frame-pointer walk reads x86-64 registers"
#endif

#define HZ 4000
#define MAX_DEPTH 24
#define MAX_SAMPLES (1 << 16)
#define STACK_SPAN (64u << 20)

/* Sample i: depth[i] addresses at frames[i * MAX_DEPTH], leaf first. */
static uintptr_t *frames;
static unsigned char *depth;
static volatile size_t taken;

static void on_alarm(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    size_t i = taken;
    if (i >= MAX_SAMPLES) {
        return;
    }
    const ucontext_t *uc = context;
    uintptr_t *out = frames + i * MAX_DEPTH;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    int n = 0;
    out[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    /* A frame is [saved rbp, return address], above the stack pointer. */
    while (n < MAX_DEPTH && fp >= sp && fp - sp < STACK_SPAN && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) {
            break;
        }
        out[n++] = frame[1] - 1; /* inside the call, not after it */
        if (frame[0] <= fp) {
            break;
        }
        fp = frame[0];
    }
    depth[i] = (unsigned char)n;
    taken = i + 1;
}

__attribute__((constructor)) static void sampler_start(void) {
    if (!getenv("SAMPLER_OUT")) {
        return;
    }
    frames = malloc(sizeof *frames * MAX_DEPTH * MAX_SAMPLES);
    depth = malloc(MAX_SAMPLES);
    if (!frames || !depth) {
        return;
    }
    struct sigaction action = {0};
    action.sa_sigaction = on_alarm;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGALRM, &action, NULL);
    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_REAL, &every, NULL);
}

struct symbol {
    uintptr_t addr;
    char *name;
    size_t self, inclusive, last_sample;
};

static struct symbol *symbols;
static size_t nsymbols;

/* Reads `nm -C -n --defined-only` output: "ADDR TYPE NAME...". */
static int read_symbols(const char *path) {
    FILE *file = fopen(path, "r");
    if (!file) {
        return -1;
    }
    size_t cap = 0;
    char line[4096];
    while (fgets(line, sizeof line, file)) {
        char *end;
        uintptr_t addr = strtoull(line, &end, 16);
        if (end == line || end[0] != ' ' || !strchr("tTwW", end[1]) || end[2] != ' ') {
            continue;
        }
        char *name = end + 3;
        name[strcspn(name, "\n")] = 0;
        if (nsymbols == cap) {
            cap = cap ? 2 * cap : 4096;
            symbols = realloc(symbols, cap * sizeof *symbols);
            if (!symbols) {
                fclose(file);
                return -1;
            }
        }
        symbols[nsymbols++] = (struct symbol){addr, strdup(name), 0, 0, SIZE_MAX};
    }
    fclose(file);
    /* One extra entry collects what lies outside the binary. */
    symbols = realloc(symbols, (nsymbols + 1) * sizeof *symbols);
    if (!symbols) {
        return -1;
    }
    symbols[nsymbols] = (struct symbol){0, "[outside the binary: libc, vdso]", 0, 0, SIZE_MAX};
    return 0;
}

/* The symbol holding `addr` (an offset into the executable). */
static struct symbol *lookup(uintptr_t addr) {
    if (nsymbols == 0 || addr < symbols[0].addr) {
        return &symbols[nsymbols];
    }
    size_t lo = 0, hi = nsymbols;
    while (hi - lo > 1) {
        size_t mid = lo + (hi - lo) / 2;
        if (symbols[mid].addr <= addr) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return &symbols[lo];
}

/* The executable's load bias and its mapped range. */
static uintptr_t bias, text_end;

static int find_executable(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && ph->p_vaddr + ph->p_memsz > text_end) {
            text_end = ph->p_vaddr + ph->p_memsz;
        }
    }
    return 1; /* the first object is the executable */
}

/* Which count `by_count` orders by: self time, or inclusive time. */
static int sort_self;

static int by_count(const void *a, const void *b) {
    const struct symbol *x = *(struct symbol *const *)a, *y = *(struct symbol *const *)b;
    size_t cx = sort_self ? x->self : x->inclusive, cy = sort_self ? y->self : y->inclusive;
    return cx < cy ? 1 : cx > cy ? -1 : strcmp(x->name, y->name);
}

static void table(FILE *out, struct symbol **order, size_t top, size_t samples, int self) {
    sort_self = self;
    qsort(order, nsymbols + 1, sizeof *order, by_count);
    fprintf(out, "%s, top %zu of %zu samples\n", self ? "self time" : "inclusive time", top, samples);
    for (size_t i = 0; i < top && i <= nsymbols; i++) {
        size_t n = self ? order[i]->self : order[i]->inclusive;
        if (n == 0) {
            break;
        }
        fprintf(out, "%6.1f%% %7zu  %s\n", 100.0 * n / samples, n, order[i]->name);
    }
}

/* The process's own cost, as wait4 would report it to a parent. */
static void usage_line(FILE *out, const struct rusage *ru) {
    double cpu_ms = 1e3 * (ru->ru_utime.tv_sec + ru->ru_stime.tv_sec)
                    + 1e-3 * (ru->ru_utime.tv_usec + ru->ru_stime.tv_usec);
    fprintf(out, "process: peak RSS %.2f MiB, %ld minor faults, %ld major faults, cpu %.1f ms\n",
            ru->ru_maxrss / 1024.0, ru->ru_minflt, ru->ru_majflt, cpu_ms);
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!frames) {
        return;
    }
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, NULL);
    signal(SIGALRM, SIG_IGN);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const char *syms = getenv("SAMPLER_SYMS");
    FILE *out = fopen(getenv("SAMPLER_OUT"), "w");
    if (!out || !syms || read_symbols(syms) != 0) {
        fprintf(stderr, "sampler: cannot read SAMPLER_SYMS or write SAMPLER_OUT\n");
        return;
    }
    dl_iterate_phdr(find_executable, NULL);
    size_t samples = taken;
    for (size_t i = 0; i < samples; i++) {
        for (int d = 0; d < depth[i]; d++) {
            uintptr_t pc = frames[i * MAX_DEPTH + d];
            int inside = pc >= bias && pc - bias < text_end;
            struct symbol *sym = inside ? lookup(pc - bias) : &symbols[nsymbols];
            if (d == 0) {
                sym->self++;
            }
            /* Outside frames under the leaf are libc's start-up: no news. */
            if (sym->last_sample != i && (d == 0 || sym != &symbols[nsymbols])) {
                sym->last_sample = i;
                sym->inclusive++;
            }
        }
    }
    const char *top_env = getenv("SAMPLER_TOP");
    size_t top = top_env ? strtoull(top_env, NULL, 10) : 10;
    struct symbol **order = malloc((nsymbols + 1) * sizeof *order);
    if (!order || samples == 0) {
        fprintf(out, "no samples\n\n");
        usage_line(out, &ru);
        fclose(out);
        return;
    }
    for (size_t i = 0; i <= nsymbols; i++) {
        order[i] = &symbols[i];
    }
    table(out, order, top, samples, 1);
    fprintf(out, "\n");
    table(out, order, top, samples, 0);
    fprintf(out, "\n");
    usage_line(out, &ru);
    fclose(out);
}
