"""Pinned CLI outputs: SHA-256 of stdout, exact stderr and exit code.

Each command runs in process from the repository root, so the relative
paths below (which ``analyze`` echoes in its ``dataset`` field) do not tie
a digest to the checkout's location.  The no-UK ``analyze --json`` report
is also checked through a child process's stdout.  A change that alters one of these
outputs on purpose updates its digest and says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from votedim.cli import main

ROOT = Path(__file__).resolve().parent.parent
NO_UK = ("--data", "builtin:2018", "--exclude", "United Kingdom")
Y2014 = ("--data", "builtin:2014")
CERTS = "src/votedim/certs/"

GOLDEN = [
    (
        ("analyze", "--json", *Y2014),
        "fdc7bed4699f3bfc9f22382ae261e2255fbc717605da1f846b8e749b6205eef1",
        "",
        0,
    ),
    (
        ("analyze", "--json", "--data", "builtin:2016"),
        "2d4cde0a8e3b4c871359c7f7751758f6d3914dce257aedaebcf50bb8bc73fbd3",
        "",
        0,
    ),
    (
        ("analyze", "--json", "--data", "builtin:2017"),
        "a803aa775d4b0976434fc6e9f5207008bc2b2ef45be24675212c3849af415cf7",
        "",
        0,
    ),
    (
        ("analyze", "--json", "--data", "builtin:2018"),
        "e6a5dab04b5ad1e83ac72df67b29aba81f9aa6cf576d01758a620e0b7334ca81",
        "",
        0,
    ),
    (
        ("analyze", "--json", *NO_UK),
        "504a3add541311285a5495dd4546074ebcb91e905f2d765ce970d334548b9868",
        "",
        0,
    ),
    (
        ("analyze", "--json", "--data", "tests/data/synthetic30.csv"),
        "b8c1b611ddd07a42a7f9dc0d97d8e687f026d7dfcbd8b3bcb5cd671c9dededf9",
        "",
        0,
    ),
    (
        ("analyze", "--json", "--data", "tests/data/synthetic32.csv"),
        "99d6a1f900006bdea3a74ac745262502ff822296036981d143ec7be132e742dc",
        "",
        0,
    ),
    (
        ("analyze", *Y2014),
        "c5bfba5b06137c45c5d1811e4fe3eb20928b1428d5a88b85f2936ff0bb1120d0",
        "",
        0,
    ),
    (
        ("analyze", *NO_UK),
        "1751b4c70cb958d7621c94476c31456ea11fd7e0299710c1fb0983f52478e795",
        "",
        0,
    ),
    (
        ("analyze", "--swap-roles", *Y2014),
        hashlib.sha256(b"").hexdigest(),
        "rewrite inapplicable: 45535773 gap coalitions share no player\n",
        3,
    ),
    (
        ("analyze", "--swap-roles", "--json", *NO_UK),
        hashlib.sha256(b"").hexdigest(),
        "rewrite inapplicable: 24691123 gap coalitions share no player\n",
        3,
    ),
    (
        ("verify", *Y2014),
        "4f5ab4be0de7787f7798725bc15d90a32b09965c875728f364e235bb791179a9",
        "",
        0,
    ),
    (
        ("verify", *NO_UK),
        "cb736ccf6d159427c103d00287710f2a1d579d9e732a3ad1886db5dc6214f09e",
        "",
        0,
    ),
    (
        ("lower-bound", "verify", *Y2014, "--coalitions", CERTS + "eu2014_7.txt"),
        "a5d53de550cc8189c94b32dd063001d2bb6ccb4e4cac145d3d6601b1daadb801",
        "",
        0,
    ),
    (
        ("lower-bound", "verify", *NO_UK, "--coalitions", CERTS + "eu2018_noUK_8.txt"),
        "b630e75703d276c0f5fa722321a32acea8baf3352ae6bc1f54a23182b544fbeb",
        "",
        0,
    ),
    (
        ("lower-bound", "search", *NO_UK, "--budget", "32", "--seed", "1"),
        "971e7ddcc3b226bb0590e92ae28e66c75bb53221968c37a354ec5451e38ef72e",
        "",
        0,
    ),
    (
        ("lower-bound", "search", *Y2014, "--budget", "64", "--seed", "0"),
        "abc4bb74a00daecef49d53dd515a9055651a0f2ca1babeffe4894ad7f5cd0467",
        "",
        0,
    ),
    (
        ("lower-bound", "search", "--data", "tests/data/synthetic32.csv", "--budget", "32", "--seed", "1"),
        "04add269b0abc19630f6213c3a4b28b2dc19d66c473c971a1710fbae71b4a6ff",
        "",
        0,
    ),
]


@pytest.mark.parametrize(
    "args, stdout_sha256, stderr, exit_code", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_output_is_pinned(args, stdout_sha256, stderr, exit_code, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == exit_code, result.output
    assert result.stderr == stderr
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == stdout_sha256


def test_json_through_process_stdout(tmp_path):
    # ``CliRunner`` hands the command a ``BytesIO``; the no-UK report, the
    # largest pinned output, also goes through a real process's stdout,
    # written to a file as the benchmark reads it.
    args = ("analyze", "--json", *NO_UK)
    stdout_sha256 = next(g[1] for g in GOLDEN if g[0] == args)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "stdout"
    with open(out, "wb") as f:
        code = subprocess.run(
            [sys.executable, "-m", "votedim.cli", *args], stdout=f, cwd=ROOT, env=env
        ).returncode
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == stdout_sha256
