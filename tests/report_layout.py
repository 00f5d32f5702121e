"""The report layout, written without `seqcs.cli`: the reference its writer
tests and the CI step compare against byte for byte.

A report is `json.dumps(report, indent=1)`, except that each scalar row (a
nonempty list or tuple whose items all have exact type int, bool, float or
NoneType) is its compact `json` text on one line.  Here each scalar row is
swapped for a placeholder string, the swapped value goes through
`json.dumps(indent=1)`, and each placeholder's JSON text is replaced by the
compact text of its row.

Run as a script, `python tests/report_layout.py REPORT...` exits 1 unless
each file holds exactly the layout of its parsed value and a newline.
"""

import json
import re
import sys

ROW_SCALARS = (int, bool, float, type(None))


def reference_text(obj, level: int = 0) -> str:
    """The report layout of `obj` at nesting depth `level`."""
    plain = json.dumps(obj)
    tag = "@"
    while tag in plain:  # no text of `obj` holds the tag, so every one in the swapped text is a placeholder's
        tag += "@"
    rows: list[str] = []

    def swap(x):
        if isinstance(x, (list, tuple)):
            if x and all(type(item) in ROW_SCALARS for item in x):
                rows.append(json.dumps(x, separators=(",", ":")))
                return f"{tag}{len(rows) - 1}"
            return [swap(item) for item in x]
        if isinstance(x, dict):
            return {key: swap(val) for key, val in x.items()}
        return x

    text = re.sub(f'"{tag}([0-9]+)"', lambda m: rows[int(m[1])], json.dumps(swap(obj), indent=1))
    return text.replace("\n", "\n" + " " * level)


def first_difference(actual: str, expected: str) -> int:
    """The first offset at which the two texts differ (the shorter one's
    length when one is a prefix of the other)."""
    n, at, step = min(len(actual), len(expected)), 0, 1 << 16
    while at < n and actual[at:at + step] == expected[at:at + step]:
        at += step
    return next((i for i in range(at, min(at + step, n)) if actual[i] != expected[i]), n)


def assert_same_text(actual: str, expected: str) -> None:
    """`actual == expected`, failing with both lengths and the first
    differing offset instead of a diff, which stalls on texts of megabytes."""
    if actual != expected:
        at = first_difference(actual, expected)
        raise AssertionError(
            f"texts differ: lengths {len(actual)} and {len(expected)}, first at offset {at}: "
            f"{actual[at:at + 60]!r} != {expected[at:at + 60]!r}"
        )


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            assert_same_text(text, reference_text(json.loads(text)) + "\n")
        except AssertionError as exc:
            sys.exit(f"{path}: {exc}")
        print(f"{path}: {len(text)} bytes in the report layout")
