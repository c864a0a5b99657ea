#!/usr/bin/env python3
"""Turn a hostprof dump into tables of sample shares by source line.

usage: sym.py DUMP BINARY [--path SUBSTR] [--top N]

SELF is the interrupted line, INCLUSIVE every function on the stack (once
per sample), and with --path FIRST is, per sample, the innermost frame whose
source file contains SUBSTR: which of OUR lines was running, std and alloc
frames skipped over. Only frames inside BINARY are symbolised (`addr2line
-f -C -i`: inlined callers count as frames); others show as their mapping.
"""
import argparse, collections, os, subprocess  # noqa: E401


def load(dump):
    maps, samples, section = [], [], None
    for line in open(dump):
        line = line.strip()
        if line in ("MAPS", "SAMPLES"):
            section = line
        elif section == "MAPS":
            f = line.split()
            if len(f) >= 6:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5]))
        elif section == "SAMPLES" and line:
            samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def symbolise(binary, addrs):
    """vaddr -> [(function, file:line), ...], innermost (inlined) first."""
    if not addrs:
        return {}
    args = ["addr2line", "-a", "-f", "-C", "-i", "-e", binary] + [hex(a) for a in addrs]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout.splitlines()
    table, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = table.setdefault(int(out[i], 16), [])
            i += 1
        else:
            where = out[i + 1].split(" (discriminator")[0]
            cur.append((out[i], where))
            i += 2
    return table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("dump")
    ap.add_argument("binary")
    ap.add_argument("--path", help="source-path substring for the FIRST table")
    ap.add_argument("--top", type=int, default=10)
    opt = ap.parse_args()
    maps, samples = load(opt.dump)
    real = os.path.realpath(opt.binary)
    base = min((lo - off for lo, _, off, p in maps if p == real), default=None)
    if base is None:
        raise SystemExit(f"{real} is not mapped in {opt.dump}")

    def place(addr):
        return next((p for lo, hi, _, p in maps if lo <= addr < hi), "?")

    # Frames 0 and 1 are the handler and the signal trampoline, frame 2 the
    # interrupted pc; above that are return addresses: step back into the call.
    stacks = [[pc if d == 0 else pc - 1 for d, pc in enumerate(s[2:])] for s in samples]
    wanted = sorted({pc - base for s in stacks for pc in s if place(pc) == real})
    table = symbolise(real, wanted)

    def frames(pc):
        if place(pc) != real:
            return [(os.path.basename(place(pc)), "")]
        return table.get(pc - base) or [("?", "?")]

    self_t, incl_t, first_t = (collections.Counter() for _ in range(3))
    for stack in stacks:
        flat = [fr for pc in stack for fr in frames(pc)]
        self_t[flat[0] if flat else ("?", "?")] += 1
        incl_t.update({fn for fn, _ in flat})
        if opt.path:
            hit = next((fr for fr in flat if opt.path in fr[1]), None)
            first_t[hit or ("(no frame under " + opt.path + ")", "")] += 1

    def show(title, table):
        print(f"\n{title} ({len(stacks)} samples)")
        for key, n in table.most_common(opt.top):
            fn, where = key if isinstance(key, tuple) else (key, "")
            if opt.path and opt.path in where:
                where = where[where.index(opt.path):]
            print(f"{100.0 * n / len(stacks):6.1f}%  {where:<44} {fn}")

    show("SELF", self_t)
    show("INCLUSIVE", incl_t)
    if opt.path:
        show("FIRST frame under " + opt.path, first_t)


if __name__ == "__main__":
    main()
