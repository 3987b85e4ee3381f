#!/usr/bin/env bash
# pcprof — a SIGPROF program-counter sampler for hosts without perf.
#
#   scripts/pcprof.sh [--top N] [--lines FUNC] -- <cmd> [args...]
#
# Builds a small LD_PRELOAD library that arms setitimer(ITIMER_PROF) and
# records the interrupted instruction pointer on every 1 ms tick of process
# CPU time (all threads). At exit each process writes its samples and its
# executable mappings (load bases) to <pid>.pcprof. addr2line then maps
# every sample to its innermost function (inlined callees count as
# themselves, so TagArray::find shows up under its own name) and the
# report prints the top N functions with their share of all samples.
# --lines FUNC restricts the report to functions whose name contains FUNC
# and splits their samples by source line. Build with debug info
# (RelWithDebInfo, the default) or the names and lines are "??". Samples in
# shared libraries carry the library's name: in a stripped library such as
# libc, the function is only the nearest exported symbol.
#
# The command's own output passes through; the report follows it on
# stdout. Exit status is the command's. Samples from a process that ends
# in _exit() or a fatal signal are lost.
set -euo pipefail

usage() {
  echo "usage: $0 [--top N] [--lines FUNC] -- <cmd> [args...]" >&2
  exit 2
}

top=25
func=""
while [ $# -gt 0 ]; do
  case "$1" in
    --top) [ $# -ge 2 ] || usage; top="$2"; shift 2;;
    --lines) [ $# -ge 2 ] || usage; func="$2"; shift 2;;
    --) shift; break;;
    *) usage;;
  esac
done
[ $# -gt 0 ] || usage
case "$top" in ''|*[!0-9]*) usage;; esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
samples="$work/samples"
mkdir -p "$samples"

"${CC:-cc}" -O2 -shared -fPIC -o "$work/pcprof.so" -x c - <<'C'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define kMaxSamples (1ul << 20)
static unsigned long pcs[kMaxSamples];
static unsigned long npcs;

static void on_tick(int sig, siginfo_t* si, void* ctx) {
  (void)sig, (void)si;
  const ucontext_t* uc = ctx;
  unsigned long i = __atomic_fetch_add(&npcs, 1, __ATOMIC_RELAXED);
#if defined(__x86_64__)
  if (i < kMaxSamples) pcs[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  if (i < kMaxSamples) pcs[i] = (unsigned long)uc->uc_mcontext.pc;
#endif
}

__attribute__((constructor)) static void pcprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  char path[4096], line[4096];
  snprintf(path, sizeof path, "%s/%d.pcprof", getenv("PCPROF_DIR"), getpid());
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  while (fgets(line, sizeof line, maps) != NULL) {
    if (strstr(line, " r-xp ") != NULL) fprintf(out, "map %s", line);
  }
  const unsigned long n = npcs < kMaxSamples ? npcs : kMaxSamples;
  for (unsigned long i = 0; i < n; ++i) fprintf(out, "%lx\n", pcs[i]);
  fclose(maps);
  fclose(out);
}
C

status=0
PCPROF_DIR="$samples" \
  LD_PRELOAD="$work/pcprof.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

python3 - "$samples" "$top" "$func" <<'PY'
import collections, glob, os, struct, subprocess, sys

sample_dir, top, func = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD of a 64-bit ELF."""
    try:
        with open(path, "rb") as f:
            hdr = f.read(64)
            if hdr[:4] != b"\x7fELF" or hdr[4] != 2:
                return []
            (phoff,) = struct.unpack_from("<Q", hdr, 32)
            phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        ptype, _, off, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if ptype == 1:
            segs.append((off, vaddr, filesz))
    return segs

segments = {}
hits = collections.Counter()  # (module, file vaddr) -> samples
nproc = 0
for fn in sorted(glob.glob(os.path.join(sample_dir, "*.pcprof"))):
    nproc += 1
    maps = []
    for line in open(fn):
        if line.startswith("map "):
            f = line.split()
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[6] if len(f) > 6 else "??"))
            continue
        pc = int(line, 16)
        key = ("??", pc)
        for lo, hi, off, path in maps:
            if lo <= pc < hi:
                foff = pc - lo + off
                segs = segments.setdefault(path, load_segments(path))
                for soff, svaddr, ssz in segs:
                    if soff <= foff < soff + ssz:
                        key = (path, foff - soff + svaddr)
                        break
                else:
                    key = (path, foff)
                break
        hits[key] += 1

total = sum(hits.values())
if total == 0:
    print(f"pcprof: no samples ({nproc} process(es))")
    sys.exit(0)

where = {}  # (module, vaddr) -> (function, file:line)
by_module = collections.defaultdict(list)
for mod, addr in hits:
    by_module[mod].append(addr)
for mod, addrs in by_module.items():
    if not os.path.isfile(mod):
        for a in addrs:
            where[(mod, a)] = (f"?? [{os.path.basename(mod)}]", "??")
        continue
    res = subprocess.run(["addr2line", "-f", "-C", "-e", mod],
                         input="".join(f"{a:x}\n" for a in addrs),
                         capture_output=True, text=True).stdout.splitlines()
    for i, a in enumerate(addrs):
        name = res[2 * i] if 2 * i < len(res) else "??"
        loc = res[2 * i + 1] if 2 * i + 1 < len(res) else "??"
        if name == "??" or ".so" in os.path.basename(mod):
            # Stripped system libraries resolve to the nearest exported
            # symbol, so their names are tagged with the library.
            name = f"{name} [{os.path.basename(mod)}]"
        loc = loc.split(" (discriminator")[0]
        where[(mod, a)] = (name, os.path.basename(loc.split(":")[0]) + ":" + loc.rsplit(":", 1)[-1])

agg = collections.Counter()
for key, n in hits.items():
    name, loc = where[key]
    if not func:
        agg[name] += n
    elif func in name:
        agg[f"{loc}  {name}"] += n

print(f"pcprof: {total} samples (1 ms of CPU each) from {nproc} process(es)")
if func:
    sub = sum(agg.values())
    print(f"  lines of functions matching '{func}': {sub} samples "
          f"({100.0 * sub / total:.1f}% of all)")
print(f"  {'share':>6}  {'samples':>7}  {'source line' if func else 'function'}")
for label, n in agg.most_common(top):
    if len(label) > 140:
        label = label[:137] + "..."
    print(f"  {100.0 * n / total:5.1f}%  {n:7d}  {label}")
PY
exit "$status"
