#!/usr/bin/env python3
"""Turn a hostprof dump into tables of sample shares by source line.

usage: sym.py DUMP BINARY [--path SUBSTR] [--top N]
              [--by {line,fn,file,kind}] [--within FN]

SELF is the interrupted line, INCLUSIVE every function on the stack (once
per sample), and with --path FIRST is, per sample, the innermost frame whose
source file contains SUBSTR: which of OUR lines was running, std and alloc
frames skipped over. Only frames inside BINARY are symbolised (`addr2line
-f -C -i`: inlined callers count as frames); others show as their mapping.

--by rolls the SELF and FIRST rows up: all lines of a function, all lines of
a file, or a frame's kind (KINDS below) - "how much is the mutex" is one row,
not eight futex.rs lines. Under --by kind, a SELF frame that is `other std`
and inlined straight into this repo's code takes that code's kind: `f64::mul`
or `Zip::next` inlined into a kernel loop is that kernel's arithmetic, not
the library's. The mutex, allocator and heap rows stay "the interrupted line
is theirs".
--within FN keeps only the samples with FN (substring) somewhere on the
stack, e.g. `try_run` to leave set-up out.
"""
import argparse, collections, os, subprocess  # noqa: E401

# A frame's kind: the first row with a substring in "function file:line".
KINDS = [
    ("mutex", ("futex", "sync/mutex", "sync::mutex", "sync::poison")),
    ("allocator+memcpy", ("libc.so", "alloc::alloc", "alloc/src/alloc.rs", "raw_vec",
                          "__rust_alloc", "__rust_dealloc", "__rust_realloc", "__rdl_")),
    ("heap sift", ("binary_heap",)),
    ("apps", ("crates/apps/",)),
    ("sim", ("crates/sim/",)),
    ("core", ("crates/core/",)),
    ("other std", ("/rustc/", "/library/")),
]
# The kinds that are this repo's code: what inlined std arithmetic is charged to.
OURS = ("apps", "sim", "core")


def kind(fr):
    text = " ".join(fr)
    return next((k for k, subs in KINDS if any(s in text for s in subs)), "other")


def rollup(by):
    """The table key of a frame under --by."""
    return {
        "line": lambda fr: fr,
        "fn": lambda fr: (fr[0], ""),
        "file": lambda fr: ("", fr[1].rsplit(":", 1)[0]) if fr[1] else fr,
        "kind": lambda fr: (kind(fr), ""),
    }[by]


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
    ap.add_argument("--by", choices=["line", "fn", "file", "kind"], default="line")
    ap.add_argument("--within", metavar="FN", help="keep only samples with FN on the stack")
    opt = ap.parse_args()
    key = rollup(opt.by)
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
    kept = 0
    for stack in stacks:
        flat = [fr for pc in stack for fr in frames(pc)]
        if opt.within and not any(opt.within in fn for fn, _ in flat):
            continue
        kept += 1
        top = flat[0] if flat else ("?", "?")
        if opt.by == "kind":
            # The interrupted pc's own inline chain, innermost first.
            chain = (fr for pc in stack[:1] for fr in frames(pc))
            host = next((fr for fr in chain if kind(fr) != "other std"), top)
            if kind(host) in OURS:
                top = host
        self_t[key(top)] += 1
        incl_t.update({fn for fn, _ in flat})
        if opt.path:
            hit = next((fr for fr in flat if opt.path in fr[1]), None)
            first_t[key(hit) if hit else ("(no frame under " + opt.path + ")", "")] += 1

    def show(title, table):
        scope = f"{kept} samples" + (f" within {opt.within}" if opt.within else "")
        print(f"\n{title} ({scope} of {len(stacks)})")
        for row, n in table.most_common(opt.top):
            fn, where = row if isinstance(row, tuple) else (row, "")
            if opt.path and opt.path in where:
                where = where[where.index(opt.path):]
            print(f"{100.0 * n / max(kept, 1):6.1f}%  {where:<44} {fn}")

    show("SELF", self_t)
    show("INCLUSIVE", incl_t)
    if opt.path:
        show("FIRST frame under " + opt.path, first_t)


if __name__ == "__main__":
    main()
