"""The ten README CLI commands print pinned reports.

Each command in the README's CLI block runs in a fresh interpreter.  Its
exit code and the sha256 of its stdout, with the echoed seed replaced by
null as in ``bench/workloads.report_digest``, must equal the entry in
``readme_reports.json``.  Regenerate that file only for an intended change
of a report:

    PYTHONPATH=src python tests/test_readme_reports.py
"""

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINNED = pathlib.Path(__file__).with_name("readme_reports.json")
_SEED_FIELD = re.compile(rb'"seed":-?[0-9]+')


def readme_commands():
    """argv lists of the `circdist ...` lines in the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "circdist":
            commands.append(words[1:])
    return commands


def run_report(argv):
    """(exit code, digest of stdout with the seed removed) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "circdist.cli"] + argv,
                          capture_output=True, env=env, timeout=120)
    stdout = _SEED_FIELD.sub(b'"seed":null', proc.stdout)
    return proc.returncode, hashlib.sha256(stdout).hexdigest()


def pinned():
    return json.loads(PINNED.read_text()) if PINNED.exists() else []


def test_pinned_set_is_the_readme_set():
    entries = pinned()
    assert [entry["argv"] for entry in entries] == readme_commands()
    assert len(entries) == 10


@pytest.mark.parametrize("entry", pinned(),
                         ids=lambda entry: entry["argv"][0])
def test_readme_report_is_pinned(entry):
    code, digest = run_report(entry["argv"])
    assert (code, digest) == (entry["exit_code"], entry["sha256"]), entry["argv"]


if __name__ == "__main__":
    out = []
    for argv in readme_commands():
        code, digest = run_report(argv)
        out.append({"argv": argv, "exit_code": code, "sha256": digest})
    PINNED.write_text(json.dumps(out, indent=1) + "\n")
