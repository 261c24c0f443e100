"""Batch output bytes and report bits, pinned by SHA-256.

A change meant to leave results alone (a speed-up, a refactor) must
keep every batch byte and every bit of a report.  These digests were
recorded before such a change and must hold after it; a change that
moves output on purpose records new ones and says why.  Every float
reaches them through math.lgamma, log, exp and erfc, so a platform
whose libm rounds differently would need digests of its own.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fisherbounds import report
from fisherbounds.cli import EXIT_OK, main

from conftest import iter_exhaustive

CORPUS_SEED = 4242
CORPUS_ROWS = 2000
TOP_N = 2**50


def _corpus_rows(rng: random.Random) -> list[str]:
    """About 2000 data lines: valid tables of both signs, every reject
    reason, and tables within a few thousand of n = 2^50."""
    rows = []
    for i in range(CORPUS_ROWS):
        n = rng.randint(5, 20_000)
        mx = rng.randint(1, n - 1)
        ma = rng.randint(1, n - 1)
        lo, hi = max(0, mx + ma - n), min(mx, ma)
        kind = i % 25
        if kind == 0:
            counts = rng.choice(
                [f"{n},{mx},{ma}.5,1", f"{n},{mx},{ma}", f"{n},x{mx},{ma},1", f'"{n},{mx}']
            )
        elif kind == 1:
            counts = f"{n},{mx},{ma},{hi + 1}"
        elif kind == 2:
            counts = rng.choice([f"{n},0,{ma},0", f"{n},{mx},{n},{mx}"])
        elif kind == 3:
            counts = f"{TOP_N + rng.randint(1, 1000)},{mx},{ma},{rng.choice([lo, hi])}"
        elif kind == 4:
            # strong either way round, so the exact sum stops within a few terms
            big = TOP_N - rng.randint(0, 5000)
            half = big // 2 - rng.randint(0, 100)
            overlap = rng.choice([half - rng.randint(0, 20), rng.randint(0, 20)])
            counts = f"{big},{half},{half},{overlap}"
        else:
            counts = f"{n},{mx},{ma},{rng.randint(lo, hi)}"
        rows.append(f"r{i},{counts}")
    return rows


# sha256 of --out, then --rejects (empty when not asked for), then stderr
BATCH_DIGESTS = {
    "default": "f29eb21a4c826ecdca67302f3af2badb24a0c00419023275dc1d32ecfc4b5b23",
    "no-exact-rejects": "a38e1733f4cb73e0ee201f0533c2e634a11abf17cdde10ced80c656ab762cd04",
    "negate": "39593449748932965e87efecf8c4aa85098a22af9dbffd59be4954bca88a8d07",
}
MODES = {
    "default": [],
    "no-exact-rejects": ["--no-exact", "--rejects", "{rejects}"],
    "negate": ["--negate"],
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_batch_bytes_are_pinned(mode, tmp_path, capsys):
    src = tmp_path / "in.csv"
    lines = ["id,n,mx,ma,mxa", *_corpus_rows(random.Random(CORPUS_SEED))]
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, rejects = tmp_path / "out.csv", tmp_path / "rejects.csv"
    flags = [f.format(rejects=rejects) for f in MODES[mode]]
    assert main(["batch", str(src), "--out", str(out), *flags]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes())
    digest.update(rejects.read_bytes() if rejects.exists() else b"")
    digest.update(capsys.readouterr().err.encode())
    assert digest.hexdigest() == BATCH_DIGESTS[mode]


REPORT_DIGESTS = {
    1: "7821153909c2307968cf3266172c3b5fb40d3b1deff4b4053204f08b51658983",
    3: "93e60c92622b51445886b3b9e7818e6d1d907576aef8dacd3fd4e06e28468551",
    10: "93e60c92622b51445886b3b9e7818e6d1d907576aef8dacd3fd4e06e28468551",
}


@pytest.mark.parametrize("k", sorted(REPORT_DIGESTS))
def test_report_bits_are_pinned(k):
    """raw_log and terms_evaluated of every bound and p_F, both error
    ceilings and the chi-squared log tail, on every positive n <= 12 table."""
    digest = hashlib.sha256()
    for t in iter_exhaustive(12, positive_only=True):
        r = report(t, k=k)
        for pv in (r.ub1, r.ub2, r.ub_k, r.p_fisher):
            digest.update(f"{pv.raw_log.hex()} {pv.terms_evaluated};".encode())
        for value in (r.log_error_bound, r.log_error_bound_ub2, r.chi2.log_p):
            digest.update(f"{value.hex()};".encode())
    assert digest.hexdigest() == REPORT_DIGESTS[k]
