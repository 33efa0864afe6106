"""Docs lint: the ``docs/`` tree cannot silently rot.

Two invariants, both cheap enough for tier-1:

* every ``repro.*`` dotted path referenced inside a code fence or an inline
  code span of any ``docs/*.md`` file or of ``README.md`` must resolve —
  the module prefix imports and the remaining attribute chain exists — so
  renames and removals surface as a test failure, not stale documentation;
* every step of ``repro.ir.compile``'s trace (``optimize_noc=True``, so
  all seven run) appears as a code span in ``docs/pipeline.md``, so a new
  step must be documented to land.
"""

import importlib
import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
README = DOCS_DIR.parent / "README.md"

#: ```fenced code blocks``` (any language tag)
FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)

#: `inline code spans` (single backticks, one line) outside the fences
SPAN_RE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")

#: dotted repro.* references; underscores and digits allowed per segment
SYMBOL_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

EXPECTED_DOCS = ("architecture.md", "pipeline.md", "backends.md",
                 "timing.md", "observability.md", "serving.md")


def doc_files():
    assert DOCS_DIR.is_dir(), "docs/ directory is missing"
    files = sorted(DOCS_DIR.glob("*.md"))
    assert files, "docs/ contains no markdown files"
    return files


def code_symbols(path: Path):
    """Every repro.* dotted path in the file's code fences and inline spans."""
    text = path.read_text()
    spans = SPAN_RE.findall(FENCE_RE.sub("", text))
    symbols = set()
    for code in FENCE_RE.findall(text) + spans:
        symbols.update(SYMBOL_RE.findall(code))
    return sorted(symbols)


def resolve(symbol: str):
    """Import the longest module prefix, then walk the attribute chain."""
    parts = symbol.split(".")
    module = None
    index = len(parts)
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ImportError:
            index -= 1
    if module is None:
        raise AssertionError(f"no importable module prefix in {symbol!r}")
    obj = module
    for attr in parts[index:]:
        if not hasattr(obj, attr):
            raise AssertionError(
                f"{symbol!r}: {'.'.join(parts[:index])} has no "
                f"attribute chain {'.'.join(parts[index:])!r}"
            )
        obj = getattr(obj, attr)
    return obj


def test_expected_docs_exist():
    names = {path.name for path in doc_files()}
    for expected in EXPECTED_DOCS:
        assert expected in names, f"docs/{expected} is missing"


@pytest.mark.parametrize("path", doc_files() + [README], ids=lambda p: p.name)
def test_code_fence_symbols_resolve(path):
    symbols = code_symbols(path)
    unresolved = []
    for symbol in symbols:
        try:
            resolve(symbol)
        except AssertionError as exc:
            unresolved.append(str(exc))
    assert not unresolved, (
        f"{path.name} references symbols that do not resolve:\n  "
        + "\n  ".join(unresolved)
    )


def test_every_compile_step_documented():
    from repro.apps.networks import seeded_benchmark_graph
    from repro.core.config import DEFAULT_ARCH
    from repro.ir import compile as ir_compile

    graph, _ = seeded_benchmark_graph("mnist-mlp-small", 4)
    compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=True,
                          validate=True)
    text = (DOCS_DIR / "pipeline.md").read_text()
    spans = set(SPAN_RE.findall(FENCE_RE.sub("", text)))
    undocumented = [record.name for record in compiled.trace
                    if record.name not in spans]
    assert len(compiled.trace) == 7
    assert not undocumented, (
        "docs/pipeline.md does not document compile steps: "
        + ", ".join(undocumented)
    )


def test_readme_links_the_docs_tree():
    readme = README.read_text()
    for expected in EXPECTED_DOCS:
        assert f"docs/{expected}" in readme, (
            f"README.md does not link docs/{expected}"
        )
