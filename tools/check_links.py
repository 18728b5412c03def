#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation set.

Validates every ``[text](target)`` and ``![alt](target)`` link in the
given markdown files:

- **relative file links** must point at an existing file or directory
  (resolved against the linking file's directory);
- **anchor links** (``#section`` or ``file.md#section``) must match a
  heading in the target file, using GitHub's slugification (lowercase,
  punctuation stripped, spaces to hyphens, ``-N`` suffixes for
  duplicates);
- **external links** (http/https/mailto) are *not* fetched — CI must
  not flake on the network — but plainly malformed ones (empty target)
  still fail.

Links inside fenced code blocks and inline code spans are ignored.

A ``.py`` argument is checked for the other way documentation rots:
every upper-case ``*.md`` document name (all of this repo's are) that
one of its docstrings or comments mentions must exist at the repo root
or under ``docs/``.

Usage::

    python tools/check_links.py README.md docs/*.md src/repro/**/*.py

Exits 1 with a per-link report when anything is broken; 0 otherwise.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_FENCE_RE = re.compile(r"^(```|~~~)")
_INLINE_CODE_RE = re.compile(r"`[^`]*`")
# [text](target) and ![alt](target); target ends at the first unescaped
# closing paren (markdown targets with spaces/parens are not used here).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]*)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_DOCUMENT_RE = re.compile(r"\b[A-Z][A-Z0-9_]*\.md\b")


def strip_code(lines: list[str], inline: bool = True) -> list[str]:
    """Blank out fenced code blocks (and inline code spans by default).

    Anchor collection passes ``inline=False``: a heading may legally
    contain inline code (its text still contributes to the slug), while
    a ``#`` comment inside a fenced block is never a heading.
    """
    stripped: list[str] = []
    in_fence = False
    for line in lines:
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            stripped.append("")
            continue
        if in_fence:
            stripped.append("")
        else:
            stripped.append(_INLINE_CODE_RE.sub("", line) if inline else line)
    return stripped


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for one heading (sans duplicate suffix)."""
    # Drop inline code/emphasis markers and links' targets first.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "").replace("*", "").replace("_", " ").strip()
    text = text.lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s", "-", text)


def anchors_of(path: Path) -> set[str]:
    """All heading anchors of a markdown file, duplicate-suffixed.

    Headings are collected from the code-stripped text: a ``#`` comment
    inside a fenced block is not a heading and creates no anchor.
    """
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    lines = strip_code(
        path.read_text(encoding="utf-8").splitlines(), inline=False
    )
    for line in lines:
        match = _HEADING_RE.match(line)
        if match is None:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    # Explicit <a name="..."> anchors also resolve; stored lowercase to
    # match the case-folded lookup the checker performs.
    for line in lines:
        for name in re.findall(r"<a\s+(?:name|id)=\"([^\"]+)\"", line):
            anchors.add(name.lower())
    return anchors


def check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    """All broken-link descriptions of one markdown file."""
    errors: list[str] = []
    lines = strip_code(path.read_text(encoding="utf-8").splitlines())
    for lineno, line in enumerate(lines, start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            where = f"{path}:{lineno}"
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not target:
                errors.append(f"{where}: empty link target")
                continue
            file_part, _, anchor = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    errors.append(f"{where}: missing file {target!r}")
                    continue
            else:
                resolved = path.resolve()
            if anchor:
                if resolved.is_dir() or resolved.suffix.lower() not in (
                    ".md",
                    ".markdown",
                ):
                    continue  # anchors into non-markdown are unverifiable
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = anchors_of(resolved)
                if anchor.lower() not in anchor_cache[resolved]:
                    errors.append(f"{where}: missing anchor {target!r}")
    return errors


def check_python_file(path: Path) -> list[str]:
    """Documents a Python file's docstrings and comments name that do not exist."""
    source = path.read_text(encoding="utf-8")
    mentions: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False):
            docstring = node.body[0].value
            mentions += enumerate(docstring.value.splitlines(), start=docstring.lineno)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            mentions.append((token.start[0], token.string))
    return [
        f"{path}:{lineno}: no document {name!r} at the repo root or under docs/"
        for lineno, text in sorted(mentions)
        for name in _DOCUMENT_RE.findall(text)
        if not ((REPO_ROOT / name).exists() or (REPO_ROOT / "docs" / name).exists())
    ]


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md|FILE.py [...]", file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in argv]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"no such file: {p}", file=sys.stderr)
        return 2
    anchor_cache: dict[Path, set[str]] = {}
    errors: list[str] = []
    for path in paths:
        if path.suffix == ".py":
            errors.extend(check_python_file(path))
        else:
            errors.extend(check_file(path, anchor_cache))
    if errors:
        print(f"{len(errors)} broken link(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    total = len(paths)
    print(
        f"link check OK: {total} file(s), no broken relative links, anchors "
        "or document names"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
