"""Batch, eval and sweep output bytes and report bits, pinned by SHA-256.

A change meant to leave results alone (a speed-up, a refactor) must
keep every byte the commands print and every bit of a report.  These digests were
recorded before such a change and must hold after it; a change that
moves output on purpose records new ones and says why.  Every float
reaches them through math.lgamma, log, exp and erfc, so a platform
whose libm rounds differently would need digests of its own.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from fisherbounds import (
    batch,
    build_table,
    negate_consequent,
    read_table_csv,
    report,
    run_batch,
    write_batch_csv,
)
from fisherbounds.batch import CHUNK_LINES
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


# sha256 of eval's stdout
EVAL_DIGESTS = {
    "readme": "a49318d57f75da9ec9b34a7057cfc17293b2b150eaaba28b8f01bca3c151e4d9",
    "negate": "cbd8f5b9e5f5d7de7e1393e5dc3dcc25057d60185d5154ea1fcb2a00f2774ade",
    "k7": "0d792f44f88e5e83a049343a0b0ff483c9c88bdddc5b0237121425baabbae3d7",
    "no-exact": "5c25ca72263fae6c325762ed353cef28d193a2fe3c0bf0336629a49594288cc0",
    "clamped": "132429c2f44d269c3837837c3ffb438914bb922db14a71aee9b3399ffc694f7e",
    "deep-tail": "507039aa8b51406a91430012f0cb17222695627c8794275275de206e958636cc",
}
EVAL_ARGS = {
    "readme": ["1000", "200", "250", "60"],
    "negate": ["1000", "200", "250", "40", "--negate"],
    "k7": ["1000", "200", "250", "60", "--k", "7"],
    "no-exact": ["1000", "200", "250", "60", "--no-exact"],
    # ub1 and ub2 exceed 1 and print clamped
    "clamped": ["1000", "500", "500", "251"],
    # every probability lies far below the smallest double
    "deep-tail": ["10000", "5000", "5000", "4000"],
}


@pytest.mark.parametrize("case", sorted(EVAL_ARGS))
def test_eval_bytes_are_pinned(case, capsys):
    assert main(["eval", *EVAL_ARGS[case]]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_DIGESTS[case]


# sha256 of the sweep CSV on stdout
SWEEP_DIGESTS = {
    "figure": "f62d202290d84718a1fe10e3aa2d579808b63ef6e583332b689615dd9bf92dc0",
    "k5-no-exact": "e252154f7febe944249309f837606c4aa4114f2235feab58755c4a41a61f9ec5",
    "deep-tail": "468c15658286224187a89fbd820d010607f8adf1e855aa1cc78da79cac2f8b2d",
}
SWEEP_ARGS = {
    "figure": ["1000", "200", "250", "51", "120"],
    "k5-no-exact": ["1000", "200", "250", "51", "120", "--k", "5", "--no-exact"],
    # p_fisher and the bounds print in mantissa/exponent form
    "deep-tail": ["10000", "5000", "5000", "3990", "4010"],
}


@pytest.mark.parametrize("case", sorted(SWEEP_ARGS))
def test_sweep_bytes_are_pinned(case, capsys):
    assert main(["sweep", *SWEEP_ARGS[case]]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[case]


SHARED_COLUMNS = ("lift", "leverage", "odds", "p_fisher", "ub1", "ub2", "ub3")


@pytest.mark.parametrize("counts", [(1000, 200, 250, 60), (10000, 5000, 5000, 4000)])
def test_eval_batch_and_sweep_print_a_table_alike(counts, tmp_path, capsys):
    args = [str(c) for c in counts]
    assert main(["eval", *args]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    from_eval = dict(line.split(" = ") for line in lines)

    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,n,mx,ma,mxa\nt," + ",".join(args) + "\n", encoding="utf-8")
    assert main(["batch", str(src), "--out", str(out)]) == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
    from_batch = dict(zip(header.replace("ubk", "ub3").split(","), row.split(",")))

    assert main(["sweep", *args, args[-1], "--out", str(out)]) == EXIT_OK
    header, row = out.read_text(encoding="utf-8").splitlines()
    from_sweep = dict(zip(header.split(","), row.split(",")))

    for column in SHARED_COLUMNS:
        assert from_eval[column] == from_batch[column] == from_sweep[column], column


def _walk_pin_tables() -> list:
    """Positive tables whose walks reach past n <= 12: seeded tables up to
    n = 1e6 (some of them near independence, so the certified stop comes
    late), strong tables within 5000 of 2^50 drawn as the batch corpus
    draws them, and tables with J in {0, 1, 2}."""
    rng = random.Random(1818)
    tables = []
    for i in range(1500):
        n = int(10 ** rng.uniform(1, 6))
        mx, ma = rng.randint(1, n - 1), rng.randint(1, n - 1)
        lo, hi = max(0, mx + ma - n), min(mx, ma)
        if i % 10 == 0:
            mxa = min(hi, mx * ma // n + 1 + rng.randint(0, 3))
        elif i % 10 == 1:
            mxa = max(lo, hi - rng.randint(0, 2))
        else:
            mxa = rng.randint(lo, hi)
        tables.append(build_table(n, mx, ma, mxa))
    for _ in range(200):
        big = TOP_N - rng.randint(0, 5000)
        half = big // 2 - rng.randint(0, 100)
        overlap = rng.choice([half - rng.randint(0, 20), rng.randint(0, 20)])
        tables.append(build_table(big, half, half, overlap))
    return [t if t.positive_dependency else negate_consequent(t) for t in tables]


WALK_DIGEST = "0812891ecc63e0d4cb1520a1c35297fcbdd1b43d35931098c2fe97b0a24b55a7"


def test_walk_bits_are_pinned_beyond_small_tables():
    """raw_log and terms_evaluated of every bound and p_F and both error
    ceilings, for k in {1, 2, 3, 7}, with and without the exact sum."""
    tables = [t for t in _walk_pin_tables() if t.positive_dependency]
    assert len(tables) > 1500
    assert {t.j for t in tables} >= {0, 1, 2}
    digest = hashlib.sha256()
    for t in tables:
        for k in (1, 2, 3, 7):
            for include_exact in (True, False):
                r = report(t, k, include_exact)
                for pv in (r.ub1, r.ub2, r.ub_k, r.p_fisher):
                    if pv is None:
                        digest.update(b"None;")
                    else:
                        digest.update(f"{pv.raw_log.hex()} {pv.terms_evaluated};".encode())
                digest.update(f"{r.log_error_bound.hex()} {r.log_error_bound_ub2.hex()};".encode())
    assert digest.hexdigest() == WALK_DIGEST


def _edge_case_bytes(rng: random.Random) -> bytes:
    """Three chunks of input behind a byte-order mark, in LF, CRLF and
    lone-CR line endings: valid rows, and ids quoted with a comma or a
    doubled quote, an unbalanced quote, fields of 131072 and 131073
    characters, whitespace-only lines and bytes that are not UTF-8."""
    special = [
        b'"a,b",1000,200,250,60',
        b'"q""x",1000,200,250,60',
        b' "sp" ,1000,200,250,60',
        b'"1000,200,250,60',
        b'w"v,1000,200,250,60',
        b"x" * 131072 + b",1000,200,250,60",
        b"y" * 131073 + b",1000,200,250,60",
        b"z" * 131060 + b",1000,200,250,60",
        b"   ",
        b"\t",
        b" , ,\t, ,",
        b"",
        b"lat\xffin,1000,200,250,60",
        b"latin,1000,2\xff0,250,60",
        b" pad , 1000 ,200, 250,60 ",
        b",1000,200,250,60",
        b"neg,1000,200,250,40",
    ]
    lines = []
    for i in range(3 * CHUNK_LINES):
        n = rng.randint(5, 5000)
        mx, ma = rng.randint(1, n - 1), rng.randint(1, n - 1)
        mxa = rng.randint(max(0, mx + ma - n), min(mx, ma))
        lines.append(f"r{i},{n},{mx},{ma},{mxa}".encode())
    for boundary in (3, CHUNK_LINES, 2 * CHUNK_LINES, 3 * CHUNK_LINES - 20):
        around = list(special)
        rng.shuffle(around)
        lines[boundary - 8:boundary + 9] = around
    endings = [b"\n", b"\r\n", b"\r"]
    return b"\xef\xbb\xbfid,n,mx,ma,mxa\r\n" + b"".join(
        line + rng.choice(endings) for line in lines
    )


# sha256 of --out, then --rejects
EDGE_CASE_DIGESTS = {
    "exact": "a0654217edd4da3c4d725e6d73c89924163bb27bbabdc3bf400b27b9ace437c6",
    "no-exact-negate": "06435ca5d29c28332f317db132418af65bdc1b42c4a56fff88487649a74a1dc0",
}
EDGE_CASE_FLAGS = {"exact": [], "no-exact-negate": ["--no-exact", "--negate"]}


@pytest.mark.parametrize("mode", sorted(EDGE_CASE_FLAGS))
def test_batch_edge_case_bytes_are_pinned(mode, tmp_path, monkeypatch, capsys):
    """The pooled command, the command on one CPU and the library path
    all print the pinned bytes for input that takes every parsing path."""
    src = tmp_path / "in.csv"
    src.write_bytes(_edge_case_bytes(random.Random(18)))
    flags = EDGE_CASE_FLAGS[mode]
    texts = []
    for cpus in (2, 1):
        monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
        out, rejects = tmp_path / f"out{cpus}.csv", tmp_path / f"rejects{cpus}.csv"
        argv = ["batch", str(src), "--out", str(out), "--rejects", str(rejects), *flags]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        texts.append(out.read_bytes() + rejects.read_bytes())
    out, rejects = io.StringIO(), io.StringIO()
    results = run_batch(
        read_table_csv(str(src)), negate="--negate" in flags, include_exact="--no-exact" not in flags
    )
    write_batch_csv(out, results, rejects)
    texts.append((out.getvalue() + rejects.getvalue()).encode())
    assert texts[0] == texts[1] == texts[2]
    assert hashlib.sha256(texts[0]).hexdigest() == EDGE_CASE_DIGESTS[mode]
