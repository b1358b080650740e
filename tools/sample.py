#!/usr/bin/env python3
"""Sampling profiler for one program, with the standard library only.

Usage:

    python3 tools/sample.py [--hz 500] [--top 30] [--exclude PREFIX ...] -- PROGRAM [ARGS...]

Starts PROGRAM as a child, attaches to it with PTRACE_SEIZE before it
execs, and interrupts it HZ times a second to read its instruction pointer.
Each sample is mapped to the enclosing `nm -n` symbol of the executable,
allowing for a PIE load base read from /proc/<pid>/maps, or to the name of
the shared object it fell in.  The child's output passes through; the
table of the TOP hottest symbols goes to standard error when it exits.
Only the child's main thread is sampled, and only on x86-64 Linux.

--exclude PREFIX (repeatable) sets aside the samples of every symbol whose
name starts with PREFIX (OCaml symbols end in a numeric suffix, so give
the name without it, e.g. camlDune__exe__Common.speed_probe_): they are
counted on one "excluded" line, and every other share is a percentage of
the samples left.
"""

import argparse, bisect, collections, ctypes, os, platform, subprocess, sys, time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
RIP = 16  # index of rip in struct user_regs_struct
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=None, data=None):
    if libc.ptrace(req, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%d): %s" % (req, os.strerror(err)))


def symbols(exe):
    """Sorted text-symbol start addresses and names, and whether exe is PIE."""
    with open(exe, "rb") as f:
        pie = f.read(18)[16] == 3  # e_type ET_DYN
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True).stdout
    rows = [l.split() for l in out.splitlines()]
    rows = [(int(r[0], 16), r[2]) for r in rows if len(r) == 3 and r[1] in "tTwW"]
    return [a for a, _ in rows], [n for _, n in rows], pie


def mappings(pid):
    """The child's mappings as (lo, hi, offset, path) tuples."""
    with open("/proc/%d/maps" % pid) as f:
        rows = [l.split() for l in f]
    return [tuple(int(x, 16) for x in r[0].split("-")) + (int(r[2], 16), r[5] if len(r) > 5 else "anon")
            for r in rows]


def where(rip, maps, exe, syms):
    """The symbol or shared object holding rip; None outside every mapping."""
    addrs, names, pie = syms
    hit = next((m for m in maps if m[0] <= rip < m[1]), None)
    if hit is None:
        return None
    if hit[3] != exe:
        return "[%s]" % os.path.basename(hit[3])
    base = min(m[0] - m[2] for m in maps if m[3] == exe) if pie else 0
    i = bisect.bisect_right(addrs, rip - base) - 1
    return names[i] if i >= 0 else "[unknown]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=float, default=500.0)
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--exclude", action="append", default=[], metavar="PREFIX",
                    help="set aside the samples of symbols starting with PREFIX (repeatable)")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd or platform.machine() != "x86_64" or not sys.platform.startswith("linux"):
        ap.error("give a PROGRAM to run (x86-64 Linux only)")
    exe = os.path.realpath(subprocess.run(["sh", "-c", 'command -v "$1"', "sh", cmd[0]],
                                          capture_output=True, text=True).stdout.strip() or cmd[0])
    syms = symbols(exe)
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: wait until seized, then exec
        try:
            os.close(go_w)
            os.read(go_r, 1)
            os.execv(exe, cmd)
        finally:
            os._exit(127)
    os.close(go_r)
    ptrace(PTRACE_SEIZE, pid)
    os.write(go_w, b"x")
    os.close(go_w)
    regs = (ctypes.c_ulong * 27)()
    hits, total, maps = collections.Counter(), 0, []
    while True:
        time.sleep(1.0 / args.hz)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # already exiting; waitpid reports it
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
        rip = regs[RIP]
        # An interrupt or a group stop sets the event field; any other stop
        # is a signal the child must still receive.
        ptrace(PTRACE_CONT, pid, None, 0 if status >> 16 else os.WSTOPSIG(status))
        name = where(rip, maps, exe, syms)
        if name is None:
            maps = mappings(pid)
            name = where(rip, maps, exe, syms) or "[unmapped]"
        hits[name] += 1
        total += 1
    print("# %d samples at %g Hz of %s" % (total, args.hz, " ".join(cmd)), file=sys.stderr)
    excluded = sum(n for name, n in hits.items() if name.startswith(tuple(args.exclude)))
    if args.exclude:
        print("%7d excluded  %s" % (excluded, " ".join(args.exclude)), file=sys.stderr)
    kept = collections.Counter({name: n for name, n in hits.items()
                                if not name.startswith(tuple(args.exclude))})
    for name, n in kept.most_common(args.top):
        print("%7d %6.2f%%  %s" % (n, 100.0 * n / max(total - excluded, 1), name), file=sys.stderr)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
