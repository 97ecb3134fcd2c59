"""Show that the benchmark's checks accept real output and reject tampered output.

    python3 perfbench/selftest.py

Runs `analyze --json` and `verify` on 2018 without the United Kingdom,
`lower-bound verify` on the bundled certificate set and on one seeded
`certify` input (about 35 s in all), checks that each real output passes,
then alters each output in a few ways and checks that every altered copy
is rejected.  Exits 0 iff all of that holds.
"""

from __future__ import annotations

import re
import shutil
import sys

import run

def expect(
    failures: list[str], label: str, step: run.Step, stdout: bytes, code: int, accepted: bool
) -> None:
    """Run the step's checker on (stdout, code); record a failure if it disagrees."""
    try:
        step.checker(stdout, code)
        got, why = True, ""
    except (ValueError, KeyError, TypeError) as e:
        got, why = False, str(e)
    ok = got == accepted
    if not ok:
        failures.append(label)
    verdict = "accepted" if got else "rejected"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}{f' ({why[:90]})' if why else ''}")


def _swap_first_member(line: bytes) -> bytes:
    """Move one rank from q to p in a certified pair line."""
    m = re.search(rb"p=\{([\d,]*)\}  q=\{(\d+),", line)
    assert m is not None, line
    return line[: m.start(1)] + m[1] + b"," + m[2] + line[m.end(1) : m.start(2)] + line[m.end(2) + 1 :]


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures: list[str] = []
    try:
        steps = run.steps_for("fence-noUK", 1, work)
        certify = run.steps_for("certify", 1, work)
        analyze, verify, lb_verify = steps[0], steps[1], steps[2]
        outputs = {}
        for name, step in (
            ("analyze", analyze),
            ("verify", verify),
            ("lb_verify", lb_verify),
            ("certify_clique", certify[0]),
            ("certify_pair", certify[1]),
        ):
            argv = [sys.executable, "-m", "votedim.cli", *step.argv, "--threads", "1"]
            code, stdout, *_ = run.run_process(argv, work / f"{name}.out")
            outputs[name] = (step, stdout, code)
            expect(failures, f"{name}: real output", step, stdout, code, True)

        step, out, code = outputs["analyze"]
        expect(failures, "analyze: bound changed", step, out.replace(b'"bound": 1364', b'"bound": 1363'), code, False)
        bumped = re.sub(rb'"total_population": (\d+)', lambda m: b'"total_population": %d' % (int(m[1]) + 1), out)
        expect(failures, "analyze: total population + 1", step, bumped, code, False)
        expect(failures, "analyze: trailing space", step, out + b" ", code, False)
        expect(failures, "analyze: exit code 1", step, out, 1, False)

        step, out, code = outputs["verify"]
        expect(failures, "verify: game count changed", step, out.replace(b"1364", b"1365"), code, False)

        step, out, code = outputs["lb_verify"]
        lines = out.splitlines(keepends=True)
        pair = next(i for i, line in enumerate(lines) if line.startswith(b"pair (1,2)"))
        forged = lines[:pair] + [_swap_first_member(lines[pair])] + lines[pair + 1 :]
        expect(failures, "lb_verify: certificate member moved", step, b"".join(forged), code, False)
        dropped = lines[:pair] + lines[pair + 1 :]
        expect(failures, "lb_verify: pair line dropped", step, b"".join(dropped), code, False)
        expect(failures, "lb_verify: bound raised", step, out.replace(b"bound: 8", b"bound: 9"), code, False)
        coalition = lines[0].replace(b",28} losing", b"} losing")
        expect(failures, "lb_verify: member dropped from a coalition", step, b"".join([coalition] + lines[1:]), code, False)

        step, out, code = outputs["certify_clique"]
        lines = out.splitlines(keepends=True)
        pair = next(i for i, line in enumerate(lines) if line.startswith(b"pair (1,2)"))
        forged = lines[:pair] + [_swap_first_member(lines[pair])] + lines[pair + 1 :]
        expect(failures, "certify clique: certificate member moved", step, b"".join(forged), code, False)
        expect(failures, "certify clique: exit code 1", step, out, 1, False)
        withheld = lines[:pair] + [b"pair (1,2): no-certificate\n"] + lines[pair + 1 : -1]
        withheld.append(b"set not fully certified: no lower bound claimed\n")
        expect(failures, "certify clique: certificate withheld", step, b"".join(withheld), 1, False)

        step, out, code = outputs["certify_pair"]
        claim = out.replace(b"no-certificate", b"certified  p={1}  q={2}")
        expect(failures, "certify pair: forged certificate", step, claim, code, False)
        expect(failures, "certify pair: exit code 0", step, out, 0, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"FAILED: {', '.join(failures)}" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
