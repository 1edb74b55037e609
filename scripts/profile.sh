#!/usr/bin/env bash
# Where one benchmark workload's CPU time goes, without `perf`:
#
#     scripts/profile.sh WORKLOAD SECONDS [FUNCTION]
#
# e.g. `scripts/profile.sh tune_sim 14`, or `scripts/profile.sh tune_sim 14
# descend` to also see what is under one function. Three parts:
#
# 1. An LD_PRELOADed sampler, built here with gcc: a SIGPROF handler on an
#    ITIMER_PROF timer (one sample per millisecond of CPU time, any thread)
#    that records the interrupted program counter and the return addresses
#    above it (glibc `backtrace`, which unwinds by the binary's unwind
#    tables). At exit it writes each sample as module-relative offsets.
# 2. The benchmark, built with line tables into target/profile, run once on
#    one CPU. PIMDL_BENCH_PINNED=1 is what the benchmark sets when it
#    re-executes itself under `taskset`; set here, the run does not
#    re-execute, so the samples are the measured process's own. Worker
#    processes (fabric_small) write their own sample files.
# 3. `llvm-symbolizer --inlining`, which expands each address into its
#    chain of inlined frames. A function's inclusive share is the fraction
#    of samples with it anywhere on the stack, inlined or called; its self
#    share the fraction whose innermost frame it is. With FUNCTION (a
#    path's last segments, e.g. `descend` or `bnb::score_leaves`), each
#    sample under it is charged to its innermost frame of that name: to
#    the function itself if it is the innermost frame (its self time),
#    otherwise to the frame just inside it (its direct callee, inlined or
#    called), each as a share of all samples.
#
# The benchmark's JSON line and the raw samples stay in the printed
# directory. Run nothing else while it samples. check.sh does not run this.
set -euo pipefail
usage="usage: scripts/profile.sh WORKLOAD SECONDS [FUNCTION]"
workload=${1:?$usage}
seconds=${2:?$usage}
focus=${3:-}
cd "$(dirname "$0")/.."
root=$(pwd)
for tool in gcc llvm-symbolizer taskset python3; do
    command -v "$tool" >/dev/null || { echo "profile.sh: needs $tool" >&2; exit 1; }
done
out=$(mktemp -d)

cat >"$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 64
#define WORDS (1 << 22)

/* Each sample: its frame count, the interrupted pc, the return addresses. */
static uintptr_t words[WORDS];
static size_t used;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    uintptr_t pc = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    void *frames[DEPTH];
    int n = backtrace(frames, DEPTH);
    /* Skip this handler and the signal trampoline: start at the pc. */
    int from = 0;
    while (from < n && (uintptr_t)frames[from] != pc)
        from++;
    if (from == n) {
        frames[0] = (void *)pc;
        from = 0;
        n = 1;
    }
    size_t len = (size_t)(n - from) + 1;
    size_t at = __atomic_fetch_add(&used, len, __ATOMIC_RELAXED);
    if (at + len > WORDS)
        return;
    words[at] = (uintptr_t)(n - from);
    for (int i = from; i < n; i++)
        words[at + 1 + (size_t)(i - from)] = (uintptr_t)frames[i];
}

__attribute__((constructor)) static void start(void) {
    void *warm[2];
    backtrace(warm, 2); /* loads the unwinder outside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

/* One line per sample: `module|offset|symbol` per frame, innermost first,
 * the symbol the nearest dynamic one (for modules llvm-symbolizer cannot
 * name); a return address is written one byte back, inside its call. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("PROFILE_SAMPLES_DIR");
    if (!dir)
        return;
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%d", dir, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    size_t end = used < WORDS ? used : WORDS;
    for (size_t at = 0; at < end;) {
        size_t n = words[at];
        if (at + 1 + n > end)
            break;
        for (size_t i = 0; i < n; i++) {
            uintptr_t addr = words[at + 1 + i] - (i > 0);
            Dl_info dl;
            if (dladdr((void *)addr, &dl) && dl.dli_fname)
                fprintf(f, "%s%s|%#lx|%s", i ? " " : "", dl.dli_fname,
                        (unsigned long)(addr - (uintptr_t)dl.dli_fbase),
                        dl.dli_sname ? dl.dli_sname : "??");
            else
                fprintf(f, "%s?|%#lx|??", i ? " " : "", (unsigned long)addr);
        }
        fputc('\n', f);
        at += 1 + n;
    }
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c" -ldl

# Building the bench rewrites its lock file; put it back afterwards.
cp bench/Cargo.lock "$out/Cargo.lock"
trap 'cp "$out/Cargo.lock" "$root/bench/Cargo.lock"' EXIT
echo "==> building the benchmark with line tables (target/profile)"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$root/target/profile" \
    cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="$root/target/profile/release/pimdl-benchmark"

cpu=$(awk '/^Cpus_allowed_list:/ {n = split($2, a, /[-,]/); print a[n]}' /proc/self/status)
echo "==> sampling $workload for ${seconds} s on CPU $cpu"
PROFILE_SAMPLES_DIR="$out" PIMDL_BENCH_PINNED=1 LD_PRELOAD="$out/sampler.so" \
    taskset -c "$cpu" "$bin" --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 \
    >"$out/bench.json"

python3 - "$out" "$focus" <<'EOF'
import collections, glob, os, re, subprocess, sys

out, focus = sys.argv[1], sys.argv[2]
samples = []
for path in glob.glob(os.path.join(out, "samples.*")):
    with open(path) as f:
        samples += [line.split() for line in f if line.strip()]
if not samples:
    sys.exit("profile.sh: no samples written")

symbols = {}
def split(frame):
    module, offset, symbol = frame.split("|")
    key = (os.path.realpath(module), offset)
    symbols[key] = symbol
    return key

# Each module's addresses through llvm-symbolizer: one chain of frames per
# address, innermost inlined frame first, each named `function (file)`.
by_module = collections.defaultdict(set)
for sample in samples:
    for module, offset in map(split, sample):
        by_module[module].add(offset)
hash_suffix = re.compile(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$")
# Some frames come out in the legacy mangling's escapes (e.g.
# `score_leaves::_$u7b$$u7b$closure$u7d$$u7d$`); spell them as the
# demangled frames of the same code are spelled (`score_leaves::{{closure}}`).
legacy_escape = re.compile(r"\$(u[0-9a-f]+|LT|GT|RF|BP|SP|LP|RP|C)\$")
legacy_names = {"LT": "<", "GT": ">", "RF": "&", "BP": "*", "SP": "@", "LP": "(", "RP": ")", "C": ","}
def decode(name):
    name = re.sub(r"(^|::|\.\.)_\$", r"\1$", name).replace("..", "::")
    return legacy_escape.sub(
        lambda m: legacy_names.get(m[1]) or chr(int(m[1][1:], 16)), name)
chains = {}
for module, offsets in by_module.items():
    offsets = sorted(offsets)
    if not os.path.isfile(module):
        chains.update({(module, o): [f"{symbols[module, o]} ({module})"] for o in offsets})
        continue
    blocks = subprocess.run(
        ["llvm-symbolizer", "--inlining", "--demangle", "--obj", module],
        input="\n".join(offsets) + "\n", capture_output=True, text=True, check=True,
    ).stdout.split("\n\n")
    for offset, block in zip(offsets, blocks):
        lines = block.strip("\n").split("\n")
        chain = []
        # Function and location lines alternate.
        for function, location in zip(lines[0::2], lines[1::2]):
            where = os.path.basename(location.split(":")[0])
            if where in ("??", ""):
                where = os.path.basename(module)
            if function == "??":
                function = symbols[module, offset]
            chain.append(f"{decode(hash_suffix.sub('', function))} ({where})")
        chains[(module, offset)] = chain

# `{{closure}}` and `{closure#N}` name the same closures: either spelling
# of FUNCTION finds both.
closure = re.compile(r"\{closure#\d+\}")
focus_path = closure.sub("{{closure}}", focus)
def is_focus(name):
    path = closure.sub("{{closure}}", name.rsplit(" (", 1)[0])
    return path == focus_path or path.endswith("::" + focus_path)

inclusive, own = collections.Counter(), collections.Counter()
under = collections.Counter()
for sample in samples:
    seen = []
    for frame in map(split, sample):
        names = chains[frame]
        if not seen:
            own[names[0]] += 1
        seen += names
    for name in set(seen):
        inclusive[name] += 1
    # Innermost first: the first frame of that name, and the one inside it.
    at = next((i for i, name in enumerate(seen) if focus and is_focus(name)), None)
    if at is not None:
        under["(self) " + seen[0] if at == 0 else seen[at - 1]] += 1

total = len(samples)
def table(title, counts, rows):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(rows):
        print(f"{100.0 * n / total:6.1f} %  {name[-160:]}")
table("inclusive share", inclusive, 60)
table("self share", own, 25)
if focus:
    inside = sum(under.values())
    print(f"\nunder {focus}: {100.0 * inside / total:.1f} % of samples, by direct callee")
    table(f"direct callees and self time of {focus}", under, 40)
EOF
echo
echo "samples and the benchmark's JSON line: $out"
