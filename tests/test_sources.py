"""Source hygiene: measured figures live in the README, the BENCH_*.json
files and CHANGES.md, where they are re-measured, not in src/, where they go
stale unseen."""

import re
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "dcalloc"

# a time (a number followed by ms, µs, us or s), a percentage, or an
# "N of M" count
FIGURE = re.compile(r"\d(?:[\d,]*\d)?(?:\.\d+)?\s*(?:ms|µs|us|s)\b"
                    r"|\d(?:\.\d+)?\s*%"
                    r"|\b\d[\d,]*\s+of\s+\d[\d,]*\b")


def test_no_measured_figures_in_src():
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if FIGURE.search(line)]
    assert found == []


def test_figure_pattern_catches_what_it_names():
    for text in ("takes 0.35 s", "0.10-0.18 ms", "140 µs", "12 us", "well under 1%",
                 "5.5 %", "1,040 of 2,000"):
        assert FIGURE.search(text), text
    for text in ("2^-53", "1e-9", "K + I < 10^5", "C(14, 7)", "r of n items", "first s rows",
                 "at most 2K passes", "4 seeds"):
        assert not FIGURE.search(text), text
