#!/bin/sh
# Make a copy of this repository that builds without a package registry.
#
#   tools/offline-workspace.sh <src> <dst>
#
# Copies <src> (a working tree, or a directory `git archive` was extracted
# into) to <dst> without target/ and .git/, then rewrites the copy so that
# `cargo build --offline` resolves: every registry dependency is patched
# onto the API-compatible stand-ins under perf/stubs/, and what has no
# stand-in (proptest, #[tokio::test] — whole test modules and test targets —
# #[tokio::main], the multi-thread runtime, tokio::signal) is cut out of the
# copy. <src> == <dst> rewrites in place. Idempotent; writes nothing outside
# <dst>. Never run it with the repository itself as <dst>: the root
# Cargo.toml must stay registry-based.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <src> <dst>" >&2
    exit 2
fi
[ -f "$1/Cargo.toml" ] || { echo "$0: $1 has no Cargo.toml" >&2; exit 2; }
src=$(cd "$1" && pwd)
mkdir -p "$2"
dst=$(cd "$2" && pwd)

if [ -d "$dst/.git" ]; then
    echo "$0: $dst is a git checkout; refusing to rewrite it" >&2
    exit 2
fi
if [ "$src" != "$dst" ]; then
    (cd "$src" && tar -c --exclude=./target --exclude=./.git --exclude=./perf/target .) |
        tar -x -C "$dst"
fi

python3 - "$dst" <<'PY'
import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1])
STUBS = ["rand", "serde", "serde_derive", "serde_json", "tokio", "bytes", "parking_lot"]
TOKIO_ATTR = re.compile(r"#\[tokio::(test|main)")


def rewrite(path, fn):
    old = path.read_text()
    new = fn(old)
    if new != old:
        path.write_text(new)


def drop_proptest_dep(text):
    return "".join(l for l in text.splitlines(True) if not l.startswith("proptest ="))


def patch_root(text):
    text = drop_proptest_dep(text)
    if "[patch.crates-io]" not in text:
        text += "\n[patch.crates-io]\n"
        text += "".join(f'{n} = {{ path = "perf/stubs/{n}" }}\n' for n in STUBS)
    return text


def drop_tokio_targets(text, crate_dir):
    """Remove [[test]]/[[example]] blocks whose file needs #[tokio::test|main]."""
    kept = []
    for block in re.split(r"(?m)^(?=\[)", text):
        m = re.search(r'(?m)^path = "(.+)"$', block)
        if block.startswith(("[[test]]", "[[example]]")) and m:
            if TOKIO_ATTR.search((crate_dir / m.group(1)).read_text()):
                continue
        kept.append(block)
    return "".join(kept)


def strip_test_mods(text):
    """Cut every top-level `#[cfg(test)] mod x { .. }` that needs `proptest`
    or `#[tokio::test]`, with the `///` lines above it (rustc rejects a doc
    comment that documents nothing).

    The modules are self-contained and rustfmt-formatted, so one ends at the
    first line that is exactly `}` after its `mod` line.
    """
    lines = text.splitlines(True)
    out, i = [], 0
    while i < len(lines):
        if lines[i].startswith("#[cfg(test)]") and i + 1 < len(lines) and re.match(r"mod \w+ \{", lines[i + 1]):
            end = next(j for j in range(i + 2, len(lines)) if lines[j].rstrip() == "}")
            if any("proptest" in l or "#[tokio::test" in l for l in lines[i : end + 1]):
                while out and out[-1].startswith("///"):
                    out.pop()
                i = end + 1
                continue
        out.append(lines[i])
        i += 1
    return "".join(out)


def single_thread_node(text):
    text = text.replace("new_multi_thread()", "new_current_thread()")
    return text.replace("tokio::signal::ctrl_c()", "std::future::pending::<()>()")


rewrite(root / "Cargo.toml", patch_root)
for manifest in sorted(root.glob("crates/*/Cargo.toml")):
    rewrite(manifest, lambda t: drop_tokio_targets(drop_proptest_dep(t), manifest.parent))
for source in sorted(root.glob("crates/*/src/**/*.rs")):
    rewrite(source, strip_test_mods)
rewrite(root / "crates/cli/src/commands/node.rs", single_thread_node)
PY

echo "offline workspace ready: $dst"
