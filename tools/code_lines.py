#!/usr/bin/env python3
"""The repo's size metric: lines of Rust that are not blank, not a `//`
comment, and not below a file's top-level `#[cfg(test)]`.

Prints one total per crate under crates/, then `crates/core/src` and
`crates/sim/src` file by file (a file that is nothing but tests,
session/model/tests.rs, left out) - the figures a simplification PR quotes
before and after - and the fault-mode master's pair, master.rs +
session/master.rs, together; then the settable
values: the `pub` fields of the three configuration structs a caller fills
in, their sum, those no caller outside tests and examples sets (a value
stays settable only when such a caller varies it), and those no code reads
(inert: kept only for a caller that still sets them) - then the policy
decisions: counted lines of crates/core/src outside `impl Policy` that name
a `Policy` variant or call `rollback_policy()`, plus branches on a
`rollback` local in master.rs - and the methods of `impl Policy`, the rows
where the two recovery policies still differ - then the incarnation
comparisons: counted lines of crates/core/src outside
session/membership.rs that compare an incarnation with a relational
operator - then the P x P channel-counter matrices built in crates/core/src
(`vec![vec![0; n]; n]`) - then the master's kernel touch points: counted lines of
master.rs and session/master.rs that `.await` or name `MailCtx` - then the
message kinds: the variants of `Msg`, and of the failover plane's
`FailoverMsg` - then the items of `DistributionStrategy`, what an engine
supplies to the slave runner (its methods and constants) - then the
`ProtocolError` variants no caller outside tests and examples constructs -
then the environment variables code outside tests and examples reads.
Printed, never gated.

    python3 tools/code_lines.py [repo root]
    python3 tools/code_lines.py -h | --help    # this text
"""
import re
import sys
from pathlib import Path

ALL_TESTS = {"crates/core/src/session/model/tests.rs"}
# The configuration a caller sets, by the file that declares it.
CONFIGS = {
    "RunConfig": "crates/core/src/driver.rs",
    "FaultToleranceConfig": "crates/core/src/error.rs",
    "BalancerConfig": "crates/core/src/balancer.rs",
}


def code(path):
    """The counted lines of `path`: not blank, not a `//` comment, above the
    file's top-level `#[cfg(test)]`."""
    for line in path.read_text().splitlines():
        if line == "#[cfg(test)]":
            break
        s = line.strip()
        if s and not s.startswith("//"):
            yield line


def code_lines(path):
    return sum(1 for _ in code(path))


# A line that decides by recovery policy: it names a variant or asks which
# one is in force. In master.rs, so does a branch on a `rollback` local.
VARIANT = re.compile(r"Policy::(Rescatter|Rollback)\b|\brollback_policy\(")
ROLLBACK_LOCAL = re.compile(r"(?<![\w.:])rollback(?![\w(])")


POLICY_METHOD = re.compile(r"^    (?:pub(?:\([\w:]+\))? )?fn \w+")


def policy_decisions(root):
    """Counted lines of crates/core/src outside `impl Policy` that decide by
    recovery policy (`Session::new` builds the two variants, so 2 is the
    floor), and the number of methods inside it."""
    n = methods = 0
    for path in sorted((root / "crates/core/src").glob("**/*.rs")):
        local = path.relative_to(root).as_posix() == "crates/core/src/master.rs"
        in_impl = False
        for line in code(path):
            if line.startswith("impl Policy {"):
                in_impl = True
            elif in_impl and line == "}":
                in_impl = False
            elif in_impl:
                methods += bool(POLICY_METHOD.match(line))
            else:
                n += bool(VARIANT.search(line) or (local and ROLLBACK_LOCAL.search(line)))
    return n, methods


# An operand naming an incarnation on either side of a relational operator
# (not `->`, `=>`, `<<` or `>>`).
OP = r"(?:==|!=|<=|>=|(?<![<-])<(?!<)|(?<![-=>])>(?!>))"
INCARNATION_CMP = re.compile(rf"incarnation(?:\[[^\]]*\])?\s*{OP}|{OP}\s*[\w.]*incarnation")


def incarnation_comparisons(root):
    """Counted lines of crates/core/src outside session/membership.rs, where
    `Life` states which life a stamped message speaks for, that compare an
    incarnation: the admission rule written out again."""
    skip = ALL_TESTS | {"crates/core/src/session/membership.rs"}
    paths = sorted((root / "crates/core/src").glob("**/*.rs"))
    kept = (path for path in paths if path.relative_to(root).as_posix() not in skip)
    return sum(bool(INCARNATION_CMP.search(line)) for path in kept for line in code(path))


# A square matrix of counters, one row and one column per slave: the
# channel ledger's shape.
SQUARE = re.compile(r"vec!\[vec!\[0(?:u64)?; (\w+)\]; \1\]")


def channel_matrices(root):
    """The P x P counter matrices built in counted lines of
    crates/core/src: copies of the per-channel transfer counters."""
    paths = sorted((root / "crates/core/src").glob("**/*.rs"))
    return sum(len(SQUARE.findall(line)) for path in paths for line in code(path))


# A line of the master that touches the kernel: it awaits, or it names the
# actor context.
KERNEL_TOUCH = re.compile(r"\.await\b|\bMailCtx\b")
MASTER = ("crates/core/src/master.rs", "crates/core/src/session/master.rs")


def kernel_touch_points(root):
    """Counted lines of the master's two files that `.await` or name
    `MailCtx`: where the master is async code rather than a step function
    over its effects (the one shell around both controls, and the entry
    points that open it)."""
    return sum(bool(KERNEL_TOUCH.search(line)) for f in MASTER for line in code(root / f))


def enum_variants(path, name):
    """The variants of the `pub enum name` declared in `path`."""
    body = re.search(rf"^pub enum {name} \{{\n(.*?)^\}}", path.read_text(), re.M | re.S)
    return re.findall(r"^    (\w+)", body.group(1), re.M)


def trait_items(path, name):
    """The items (`fn`s and `const`s) of the `pub trait name` declared in
    `path`."""
    body = re.search(rf"^pub trait {name} \{{\n(.*?)^\}}", path.read_text(), re.M | re.S)
    return re.findall(r"^    (?:async )?(?:fn|const) (\w+)", body.group(1), re.M)


def pub_fields(path, name):
    """`pub` fields of the struct `name` declared in `path`."""
    body = re.search(rf"^pub struct {name} \{{\n(.*?)^\}}", path.read_text(), re.M | re.S)
    return re.findall(r"^    pub (\w+):", body.group(1), re.M)


def callers(root):
    """Counted lines of every Rust file outside tests/, examples/ and build
    output: the code whose settings a value is kept for."""
    for path in sorted(root.glob("**/*.rs")):
        if not {"tests", "examples", "target"} & set(path.relative_to(root).parts):
            yield from code(path)


def never_set(root, fields):
    """The `fields` of the configuration structs that no caller writes:
    never the target of an assignment (`x.field = ..`, `x.field[i].y =
    ..`) or a `&mut x.field` borrow on anything but `self`, nor a field of a
    struct-update literal (`Config { field: .., ..base }`) of its struct.
    A struct's full literal is its defaults, not a caller varying it."""
    text = "\n".join(callers(root))
    written = set()
    for name, names in fields.items():
        for body in re.findall(rf"\b{name} \{{([^{{}}]*\.\.[^{{}}]*)\}}", text):
            written.update(re.findall(r"^\s*(\w+):(?!:)", body, re.M))
        for f in names:
            path = rf"(\w+)(?:\.\w+)*\.{f}\b"
            writes = re.findall(rf"{path}(?:\[[^\]]*\]|\.\w+)*\s*[-+*/]?=(?!=)", text)
            writes += re.findall(rf"&mut\s+{path}", text)
            if any(receiver != "self" for receiver in writes):
                written.add(f)
    return [f for names in fields.values() for f in names if f not in written]


def never_read(root, fields):
    """The `fields` of the configuration structs that no code outside tests
    and examples reads: every `x.field` there is the target of an
    assignment. Such a field is inert, whoever still sets it."""
    text = "\n".join(callers(root))
    read = re.compile(r"\.({})\b(?!\s*[-+*/]?=(?!=))".format("|".join(f for n in fields.values() for f in n)))
    seen = set(read.findall(text))
    return [f for names in fields.values() for f in names if f not in seen]


# What may follow a variant named in a pattern, after its field block and
# any closing parentheses: a match arm, an or-pattern, a `let` binding.
PATTERN_END = re.compile(r"\s*\)*\s*(=>|\|(?!\|)|=(?![=>]))")


def skip_block(text, i, brackets="{}"):
    """The index past the balanced block (`{ .. }` by default) that opens
    at `text[i:]` after blanks; `i` itself when none opens there."""
    j = len(text) - len(text[i:].lstrip())
    if j >= len(text) or text[j] != brackets[0]:
        return i
    depth = 0
    for k in range(j, len(text)):
        depth += {brackets[0]: 1, brackets[1]: -1}.get(text[k], 0)
        if depth == 0:
            return k + 1
    return len(text)


def unconstructed_errors(root):
    """The `ProtocolError` variants no caller builds: every mention of one
    in the code `callers` yields is a pattern (inside `matches!`, or
    followed by `=>`, `|` or a `let`'s `=`)."""
    variants = enum_variants(root / "crates/core/src/error.rs", "ProtocolError")
    text = "\n".join(callers(root))
    while (m := re.search(r"\bmatches!", text)) is not None:
        text = text[: m.start()] + text[skip_block(text, m.end(), "()") :]
    built = set()
    for m in re.finditer(r"\bProtocolError::(\w+)\b", text):
        if not PATTERN_END.match(text, skip_block(text, m.end())):
            built.add(m.group(1))
    return [v for v in variants if v not in built]


ENV_READ = re.compile(r"\benv::var(?:_os)?\(\s*\"(\w+)\"")


def env_vars(root):
    """The environment variables code outside tests and examples reads: a
    knob that no configuration struct shows."""
    return sorted({m for line in callers(root) for m in ENV_READ.findall(line)})


def print_files(lines, crate):
    """Print the counted lines of `crates/<crate>/src` file by file, then
    their total; return them by path below that directory."""
    files = {f[len(f"{crate}/src/"):]: n for f, n in lines.items() if f.startswith(f"{crate}/src/")}
    for f, n in files.items():
        print(f"{n:7}  {f}")
    print(f"{sum(files.values()):7}  crates/{crate}/src")
    return files


def main():
    if {"-h", "--help"} & set(sys.argv[1:]):
        print(__doc__.strip())
        return
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
    crates = root / "crates"
    files = (f for f in sorted(crates.glob("*/src/**/*.rs")) if f.relative_to(root).as_posix() not in ALL_TESTS)
    lines = {f.relative_to(crates).as_posix(): code_lines(f) for f in files}
    for crate in sorted({f.split("/")[0] for f in lines}):
        total = sum(n for f, n in lines.items() if f.startswith(f"{crate}/src/"))
        print(f"{total:7}  crates/{crate}/src")
    print()
    core = print_files(lines, "core")
    pair = sum(core[f[len("crates/core/src/"):]] for f in MASTER)
    print(f"{pair:7}  fault-mode master ({' + '.join(MASTER)})")
    print()
    print_files(lines, "sim")
    print()
    fields = {name: pub_fields(root / path, name) for name, path in CONFIGS.items()}
    for name, names in fields.items():
        print(f"{len(names):7}  {name}")
    print(f"{sum(map(len, fields.values())):7}  settable values")
    unset = never_set(root, fields)
    print(f"{len(unset):7}  set by no caller outside tests and examples: {', '.join(unset)}")
    inert = never_read(root, fields)
    print(f"{len(inert):7}  read by no code outside tests and examples (inert, owed): {', '.join(inert)}")
    print()
    decisions, methods = policy_decisions(root)
    print(f"{decisions:7}  policy decisions outside impl Policy")
    print(f"{methods:7}  impl Policy methods")
    print(f"{incarnation_comparisons(root):7}  incarnation comparisons outside session/membership.rs")
    print(f"{channel_matrices(root):7}  P x P channel-counter matrices in crates/core/src")
    print(f"{kernel_touch_points(root):7}  master kernel touch points (lines of {' + '.join(MASTER)} that .await or name MailCtx)")
    msgs = enum_variants(root / "crates/core/src/msg.rs", "Msg")
    print(f"{len(msgs):7}  message kinds (Msg variants)")
    failover = enum_variants(root / "crates/core/src/msg.rs", "FailoverMsg")
    print(f"{len(failover):7}  failover message kinds (FailoverMsg variants): {', '.join(failover)}")
    strategy = trait_items(root / "crates/core/src/session/strategy.rs", "DistributionStrategy")
    print(f"{len(strategy):7}  DistributionStrategy items (what an engine supplies the slave runner)")
    print()
    unbuilt = unconstructed_errors(root)
    print(f"{len(unbuilt):7}  ProtocolError variants no caller outside tests and examples constructs: {', '.join(unbuilt)}")
    env = env_vars(root)
    print(f"{len(env):7}  environment variables read outside tests and examples: {', '.join(env)}")


if __name__ == "__main__":
    main()
