/*
 * Runs one command and appends its cost to a report file, for
 * scripts/alternate.sh:
 *
 *   wait4 REPORT PROGRAM [ARGS...]
 *
 * The command inherits stdin, stdout and stderr. Once it exits, one line
 * is appended to REPORT:
 *
 *   cpu_ms wall_ms peak_rss_kib minor_faults status
 *
 * from the rusage that wait4(2) fills in for exactly that child (user
 * plus system CPU, ru_maxrss, ru_minflt) and a monotonic clock around
 * fork and wait. Linux seeds a child's ru_maxrss with its parent's
 * resident set at fork, so this reader stays a few hundred KiB: a
 * reader as large as a Python interpreter would floor every peak at its
 * own. The exit status is the command's (128 + signal if killed).
 *
 * Build: cc -O2 -o wait4 wait4.c
 */
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static double ms(struct timeval tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
}

int main(int argc, char **argv) {
    if (argc < 3) {
        fprintf(stderr, "usage: wait4 REPORT PROGRAM [ARGS...]\n");
        return 2;
    }
    struct timespec start, end;
    clock_gettime(CLOCK_MONOTONIC, &start);
    pid_t pid = fork();
    if (pid < 0) {
        perror("wait4: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        perror("wait4: exec");
        _exit(127);
    }
    int status;
    struct rusage usage;
    if (wait4(pid, &status, 0, &usage) != pid) {
        perror("wait4: wait4");
        return 2;
    }
    clock_gettime(CLOCK_MONOTONIC, &end);
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    FILE *report = fopen(argv[1], "a");
    if (report == NULL) {
        perror("wait4: report");
        return 2;
    }
    double wall = (end.tv_sec - start.tv_sec) * 1e3 + (end.tv_nsec - start.tv_nsec) / 1e6;
    fprintf(report, "%.3f %.3f %ld %ld %d\n", ms(usage.ru_utime) + ms(usage.ru_stime), wall,
            usage.ru_maxrss, usage.ru_minflt, code);
    if (fclose(report) != 0) {
        perror("wait4: report");
        return 2;
    }
    return code;
}
