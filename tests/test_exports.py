"""The package's public surface, and the one home of each rule's text: the
docstring of the function that enforces it."""

import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pelltuples
from pelltuples.harness import CLAIMS


def test_all_names_resolve_once():
    # a deletion must take its export with it
    names = pelltuples.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pelltuples, name), name


def _own_doc(obj) -> str:
    """obj's docstring, or "" where it has none but namedtuple's generated one."""
    doc = (obj.__doc__ or "").strip()
    fields = getattr(obj, "_fields", None)
    if fields is not None and doc == f"{obj.__name__}({', '.join(fields)})":
        return ""
    return doc


def test_claims_modules_and_exports_have_docstrings():
    for claim_id, fn in CLAIMS.items():
        assert _own_doc(fn), claim_id
    assert _own_doc(pelltuples)
    for mod in pkgutil.iter_modules(pelltuples.__path__):
        assert _own_doc(import_module(f"pelltuples.{mod.name}")), mod.name
    for name in pelltuples.__all__:
        obj = getattr(pelltuples, name)
        if callable(obj):
            assert _own_doc(obj), name


def test_readme_claim_table_is_the_claims_first_docstring_lines():
    # the table cannot drift from the code: each row is its claim's first line
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)
    assert rows == [(claim_id, fn.__doc__.splitlines()[0]) for claim_id, fn in CLAIMS.items()]
