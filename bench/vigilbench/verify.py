"""Checks each operation's output against the reference answer that the
generator recorded with it.  ``error_rate`` counts the operations for which
``check`` returns a reason."""

from __future__ import annotations

import json


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _stream_verdict(wl, expect, report: dict) -> str | None:
    """A monitor report against the window-scan reference."""
    spec, buf = wl.streams[expect["stream"]]
    first = expect["first"]
    if first is None:
        if expect["type"] == "trace":
            want = {"verdict": "ok_so_far", "steps_consumed": expect["length"]}
        else:
            want = {"verdict": "safe_certified"}
        got = {k: report.get(k) for k in want}
        return None if got == want else f"expected {want}, got {got}"
    if report.get("verdict") != "violation" or report.get("prefix_len") != first:
        return f"expected a violation at {first}, got {report.get('verdict')} " \
               f"at {report.get('prefix_len')}"
    if report.get("ana_value") != first - 1:
        return "ana_value is not prefix_len - 1"
    if report.get("bad_prefix") != spec.names(buf[:first]):
        return "bad_prefix differs from the stream's first tokens"
    return None


def check(wl, op: dict, record: dict, out_path: str) -> str | None:
    """None when the operation's output is right, else the reason."""
    if record["error"] is not None:
        return record["error"]
    expect = op["expect"]
    kind = expect["type"]
    if kind == "value":
        return None if record["value"] == expect["value"] else \
            f"expected {expect['value']!r}, got {record['value']!r}"
    if op["kind"] == "lib":  # transfer: both verdicts
        for report in record["value"]:
            reason = _stream_verdict(wl, expect, report)
            if reason:
                return reason
        return None
    code = record["exit"]
    text = _read(out_path)
    if kind in ("trace", "lasso"):
        want_code = 0 if expect["first"] is None else 1
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        return _stream_verdict(wl, expect, json.loads(text))
    if kind == "check":
        want = [f"spec: {expect['name']}", "alphabet: " + " ".join(expect["alphabet"]),
                f"detector states: {expect['states']}",
                f"kernel changed language: {'yes' if expect['changed'] else 'no'}"]
        got = text.splitlines()
        return None if code == 0 and got == want else f"exit {code}, output {got}"
    if kind == "words":
        want = [" ".join(w) for w in expect["words"]]
        got = text.splitlines()
        return None if code == 0 and got == want else f"exit {code}, {len(got)} words"
    if kind == "equiv":
        want = (0, "equivalent") if expect["equal"] else (1, "not equivalent")
        got = (code, text.strip())
        return None if got == want else f"expected {want}, got {got}"
    raise ValueError(f"unknown expectation {kind!r}")
