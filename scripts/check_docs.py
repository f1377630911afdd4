#!/usr/bin/env python3
"""Lint the CLI docs: every --help flag must appear under docs/.

Usage:
    check_docs.py [--bin-dir build] [--docs-dir docs]
                  [--tools awsim,awsweep]

Runs each tool with --help, extracts every `--flag` token from the
usage text, and fails unless each token appears verbatim somewhere
in a Markdown file under the docs directory. Both tools print --help
from the flag table in tools/cli.hh that also parses their flags, so
the usage text names every flag a tool accepts. This keeps the recipe
docs (docs/AWSIM.md, docs/EXPERIMENTS.md, ...) from silently
trailing the binaries when a new knob lands: the PR that adds a
flag must also document it, or CI goes red.

The check is one-sided by design. Docs may discuss flags beyond the
usage text (deprecated spellings, planned work) without failing the
lint; only undocumented *live* flags are errors.

Exit status: 0 = every flag documented, 1 = missing docs or a tool
that could not be run.
"""

import argparse
import os
import re
import subprocess
import sys

#: A flag token: leading --, then lowercase words joined by single
#: dashes. The lookbehind keeps the regex from chopping a suffix out
#: of a longer token (e.g. matching `--json` inside `--timeline-json`
#: is fine -- both are real flags -- but `…-json` alone is not).
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")

DEFAULT_TOOLS = ("awsim", "awsweep")


def help_text(binary):
    """Run `binary --help` and return its combined output."""
    proc = subprocess.run(
        [binary, "--help"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=60,
        check=False,
        encoding="utf-8",
        errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{binary} --help exited {proc.returncode}")
    if not proc.stdout.strip():
        raise RuntimeError(f"{binary} --help printed nothing")
    return proc.stdout


def docs_corpus(docs_dir):
    """Concatenate every Markdown file under docs_dir."""
    chunks = []
    names = []
    for name in sorted(os.listdir(docs_dir)):
        if not name.endswith(".md"):
            continue
        path = os.path.join(docs_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            chunks.append(f.read())
        names.append(name)
    if not names:
        raise RuntimeError(f"no .md files under {docs_dir}")
    return "\n".join(chunks), names


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bin-dir", default="build",
                        help="directory holding the built tool "
                        "binaries (default: build)")
    parser.add_argument("--docs-dir", default="docs",
                        help="directory of Markdown docs to search "
                        "(default: docs)")
    parser.add_argument("--tools",
                        default=",".join(DEFAULT_TOOLS),
                        help="comma-separated tool names "
                        "(default: %(default)s)")
    args = parser.parse_args()

    try:
        corpus, doc_names = docs_corpus(args.docs_dir)
    except (OSError, RuntimeError) as err:
        print(f"check_docs: FAIL: {err}", file=sys.stderr)
        return 1
    documented = set(FLAG_RE.findall(corpus))

    failures = []
    total = 0
    for tool in args.tools.split(","):
        tool = tool.strip()
        if not tool:
            continue
        binary = os.path.join(args.bin_dir, tool)
        try:
            flags = sorted(set(FLAG_RE.findall(help_text(binary))))
        except (OSError, RuntimeError,
                subprocess.TimeoutExpired) as err:
            failures.append(f"{tool}: {err}")
            continue
        if not flags:
            failures.append(f"{tool}: no --flags in --help output")
            continue
        missing = [f for f in flags if f not in documented]
        total += len(flags)
        verdict = "ok" if not missing else "MISSING " + " ".join(
            missing)
        print(f"{tool:<8} {len(flags):>3} flags  {verdict}")
        for flag in missing:
            failures.append(
                f"{tool}: flag {flag} appears in --help but in "
                f"none of {args.docs_dir}/*.md")

    if failures:
        for failure in failures:
            print(f"check_docs: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_docs: PASS ({total} flags across "
          f"{len(doc_names)} docs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
