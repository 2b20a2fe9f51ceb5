"""Check CLI job outputs against the stored references.

Every checker parses the output and compares the parsed result with the
reference; a wrong exit code is a failure too.  Each returns ``None`` when
the job is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import re

_VALIDATE = re.compile(
    r"^ok: (\d+) vert(?:ex|ices), (\d+) edges?, (\d+) components?$"
)
_PROPERTY = re.compile(r"^(pass|FAIL) (.+): (\d+) checks?$")
_SKIP = re.compile(r"^SKIP (.+?): ")


def check_validate(code, stdout, entry):
    if code != 0:
        return f"exit code {code}"
    m = _VALIDATE.match(stdout.strip())
    if m is None:
        return f"unparsed validate output {stdout.strip()[:80]!r}"
    shape = entry["shape"]
    got = dict(zip(("n", "edges", "c"), map(int, m.groups())))
    if got != shape:
        return f"shape {got} != {shape}"
    return None


def _parse_profile(line):
    coefficients = {}
    for token in line.split():
        k, colon, v = token.partition(":")
        if not colon or not k.isdigit() or not v.isdigit():
            return None
        coefficients[k] = int(v)
    return coefficients


def check_profile(code, stdout, entry, *, both=False):
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    got = _parse_profile(lines[0]) if lines else None
    want = entry["expect"]["profile"]
    if got != want:
        return f"profile {got} != {want}"
    if both and lines[1:] != ["engines agree"]:
        return f"engine cross-check line {lines[1:]!r}"
    if not both and len(lines) != 1:
        return f"{len(lines)} output lines, expected 1"
    return None


def check_profile_both(code, stdout, entry):
    return check_profile(code, stdout, entry, both=True)


def check_verify(code, stdout, entry):
    if code != 0:
        return f"exit code {code}"
    expect = entry["expect"]
    got = []
    orbit = None
    for line in stdout.splitlines():
        if line.startswith("orbit size: "):
            orbit = int(line[len("orbit size: "):])
        elif (m := _PROPERTY.match(line)) is not None:
            status, name, checks = m.groups()
            got.append([name, status, int(checks)])
        elif (m := _SKIP.match(line)) is not None:
            got.append([m.group(1), "skip", None])
    if orbit != expect["orbit_size"]:
        return f"orbit size {orbit} != {expect['orbit_size']}"
    if got != expect["properties"]:
        diff = [g for g, w in zip(got, expect["properties"]) if g != w]
        return f"properties differ: {diff or got}"
    if stdout.splitlines()[-1:] != ["all properties verified"]:
        return "missing 'all properties verified'"
    return None


def check_orbit(code, stdout, entry):
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    want = entry["expect"]["count"]
    if not lines or lines[-1] != f"count: {want}":
        return f"count line {lines[-1:]!r}, expected 'count: {want}'"
    systems = lines[:-1]
    if len(systems) != want or len(set(systems)) != want:
        return f"{len(set(systems))} distinct systems listed, expected {want}"
    return None


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason, label):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def _render_profile(entry):
    items = sorted(entry["expect"]["profile"].items(), key=lambda kv: int(kv[0]))
    return " ".join(f"{k}:{v}" for k, v in items) + "\n"


def _render_verify(entry):
    expect = entry["expect"]
    lines = [f"orbit size: {expect['orbit_size']}"]
    for name, status, checks in expect["properties"]:
        if status == "skip":
            lines.append(f"SKIP {name}: skipped")
        else:
            lines.append(f"{status} {name}: {checks} checks")
    lines.append("all properties verified")
    return "\n".join(lines) + "\n"


def _render_orbit(entry):
    count = entry["expect"]["count"]
    return "".join(f"system {i}\n" for i in range(count)) + f"count: {count}\n"


def self_test(refs):
    """Negative control: the checker must pass clean outputs rendered from the
    references and count each of three planted corruptions as a failure.

    Returns a list of problems; empty when the checker works."""
    pools = refs["workloads"]
    profile = pools["profile-crosscheck"][0]
    verify = pools["verify-exhaustive"][0]
    orbit = pools["orbit"][0]

    clean_profile = _render_profile(profile)
    clean_verify = _render_verify(verify)
    clean_orbit = _render_orbit(orbit)
    problems = []
    for label, reason in (
        ("profile", check_profile(0, clean_profile, profile)),
        ("verify", check_verify(0, clean_verify, verify)),
        ("orbit", check_orbit(0, clean_orbit, orbit)),
    ):
        if reason is not None:
            problems.append(f"clean {label} output rejected: {reason}")

    k, v = clean_profile.split()[0].split(":")
    bad_profile = clean_profile.replace(f"{k}:{v}", f"{k}:{int(v) + 1}", 1)
    bad_verify = clean_verify.replace("\npass ", "\nFAIL ", 1)
    count = orbit["expect"]["count"]
    bad_orbit = clean_orbit.replace(f"count: {count}", f"count: {count + 1}")
    tally = Tally()
    tally.record(check_profile(0, bad_profile, profile), "profile off by one")
    tally.record(check_verify(0, bad_verify, verify), "verify FAIL line")
    tally.record(check_orbit(0, bad_orbit, orbit), "orbit count off by one")
    if tally.failed != 3 or tally.fail_ratio != 1.0:
        problems.append(
            f"only {tally.failed} of 3 planted corruptions counted "
            f"(fail_ratio {tally.fail_ratio})"
        )
    return problems
