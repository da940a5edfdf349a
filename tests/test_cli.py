import csv
import hashlib
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rootrand.generator as generator_mod
import rootrand.roots as roots_mod
import rootrand.stats as stats_mod
from rootrand import GeneratorConfig, bits_to_decimal, cli, digits_stream, first_n_primes, generate_bits
from rootrand.cli import RunManifest, load_config_file, main

WORKED_CFG = """\
# single pair demo: cube roots of 5 and 17
n_pairs = 1
rounds = 1
precision_digits = 100
skip_digits = 50
c1 = 5
c2 = 17
degrees = 3
"""


@pytest.fixture
def worked_cfg_file(tmp_path):
    path = tmp_path / "worked.cfg"
    path.write_text(WORKED_CFG)
    return path


def _drop_timing(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("timing_seconds"))


def test_load_config_file(worked_cfg_file):
    values = load_config_file(worked_cfg_file)
    assert values["n_pairs"] == 1
    assert values["c1"] == (5,)
    assert values["degrees"] == (3,)


def test_gen_bits_worked_ascii(worked_cfg_file, tmp_path):
    out = tmp_path / "bits.txt"
    rc = main(["gen-bits", "--config", str(worked_cfg_file), "--count", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"010\n"
    manifest = RunManifest.from_text((tmp_path / "bits.txt.manifest").read_text())
    assert manifest.command == "gen-bits"
    assert manifest.status == "ok"
    assert manifest.config.c1 == (5,)
    assert manifest.config.degrees == (3,)
    assert manifest.counts["bits"] == 3
    assert manifest.outputs == (str(out),)


def test_gen_bits_packed_matches_ascii(worked_cfg_file, tmp_path):
    ascii_out = tmp_path / "a.txt"
    packed_out = tmp_path / "p.bin"
    assert main(["gen-bits", "--config", str(worked_cfg_file), "--count", "9",
                 "--out", str(ascii_out)]) == 0
    assert main(["gen-bits", "--config", str(worked_cfg_file), "--count", "9",
                 "--format", "packed", "--out", str(packed_out)]) == 0
    ascii_bits = np.frombuffer(ascii_out.read_bytes()[:-1], dtype=np.uint8) - ord("0")
    packed = packed_out.read_bytes()
    assert len(packed) == 2
    unpacked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=9)
    assert np.array_equal(ascii_bits, unpacked)
    cfg = GeneratorConfig(n_pairs=1, rounds=1, precision_digits=100, skip_digits=50,
                          c1=(5,), c2=(17,), degrees=(3,))
    assert np.array_equal(unpacked, generate_bits(cfg, 9))


def test_gen_bits_rerun_identical(worked_cfg_file, tmp_path):
    first = tmp_path / "one.txt"
    second = tmp_path / "two.txt"
    for out in (first, second):
        assert main(["gen-bits", "--config", str(worked_cfg_file), "--count", "20",
                     "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    m1 = _drop_timing((tmp_path / "one.txt.manifest").read_text())
    m2 = _drop_timing((tmp_path / "two.txt.manifest").read_text())
    assert m1.replace("one.txt", "x") == m2.replace("two.txt", "x")


def test_flags_override_config_file(worked_cfg_file, tmp_path):
    out = tmp_path / "bits.txt"
    rc = main(["gen-bits", "--config", str(worked_cfg_file), "--precision", "80",
               "--count", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"010\n"
    manifest = RunManifest.from_text((tmp_path / "bits.txt.manifest").read_text())
    assert manifest.config.precision_digits == 80


def test_gen_digits(tmp_path):
    out = tmp_path / "digits.txt"
    rc = main(["gen-digits", "--count", "5", "--out", str(out)])
    assert rc == 0
    expected, consumed = digits_stream(GeneratorConfig(), 5)
    assert out.read_bytes() == "".join(map(str, expected.tolist())).encode() + b"\n"
    manifest = RunManifest.from_text((tmp_path / "digits.txt.manifest").read_text())
    assert manifest.counts["digits"] == 5
    assert manifest.counts["bits_consumed"] == consumed
    assert consumed % 4 == 0
    decoded = bits_to_decimal(generate_bits(GeneratorConfig(), consumed))
    assert decoded.tolist() == expected.tolist()


def test_cli_error_paths(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["gen-bits", "--skip", "30", "--count", "3", "--out", str(out)]) == 2
    assert "skip_digits" in capsys.readouterr().err
    assert main(["gen-bits", "--count", "0", "--out", str(out)]) == 2
    assert main(["gen-bits", "--config", str(tmp_path / "missing.cfg"), "--count", "3",
                 "--out", str(out)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_pairs = 1\nmystery = 4\n")
    assert main(["gen-bits", "--config", str(bad), "--count", "3", "--out", str(out)]) == 2
    assert "mystery" in capsys.readouterr().err
    # A 31-digit override prime is refused before the prime test would sieve up to its square root.
    huge = tmp_path / "huge.cfg"
    huge.write_text("n_pairs = 1\nrounds = 1\nc1 = 1000000000000000000000000000057\nc2 = 17\n")
    assert main(["gen-bits", "--config", str(huge), "--count", "3", "--out", str(out)]) == 2
    assert "at most 1000000000000" in capsys.readouterr().err
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("rounds = 1\nn_pairs = abc\n")
    assert main(["gen-bits", "--config", str(malformed), "--count", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{malformed}:2:" in err
    assert "n_pairs" in err and "'abc'" in err
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("# comment\nrounds = 1\nn_pairs 2\n")
    assert main(["gen-bits", "--config", str(no_equals), "--count", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{no_equals}:3:" in err and "expected 'key = value'" in err
    # A data file that cannot be written is an error, and no manifest follows it.
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    for argv in (["gen-bits", "--count", "3"], ["test", "--suite", "dyads", "--strings", "1"]):
        assert main(argv + ["--precision", "300", "--out", str(blocker / "x.txt")]) == 2
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.manifest"))
    repro = ["repro", "--precision", "300", "--strings", "1", "--dist-strings", "1", "--pairs", "100"]
    assert main(repro + ["--segments", "0", "--out", str(tmp_path / "repro")]) == 2
    assert "segments" in capsys.readouterr().err
    assert main(["test", "--suite", "all", "--precision", "300", "--strings", "1", "--pairs", "0",
                 "--out", str(tmp_path / "rep.csv")]) == 2
    assert "--pairs" in capsys.readouterr().err
    # A bad count fails before the first data file is written.
    assert not list(tmp_path.glob("rep*"))
    # A bad --alpha or --workers fails before any stream work, file or directory.
    flags = tmp_path / "flags"
    flags.mkdir()
    for flag, argv in (
        ("--count", ["gen-bits", "--count", "0", "--out", str(flags / "x.txt")]),
        ("--workers", ["gen-bits", "--count", "3", "--workers", "0", "--out", str(flags / "x.txt")]),
        ("--alpha", ["test", "--suite", "all", "--strings", "1000", "--precision", "300", "--alpha", "1.5",
                     "--out", str(flags / "rep.csv")]),
        ("--workers", ["test", "--suite", "pairs", "--workers", "0", "--out", str(flags / "rep.csv")]),
        ("--alpha", ["repro", "--alpha", "0", "--out", str(flags / "repro")]),
        ("--workers", ["repro", "--workers", "0", "--out", str(flags / "repro")]),
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert time.perf_counter() - start < 1
    assert not list(flags.iterdir())
    # So does an override schedule that runs short of a later table: its
    # n_pairs * rounds entries hold 250 digit pairs each, fewer than the
    # pair table asks.
    def short_schedule(n_pairs, rounds):
        path = tmp_path / f"short{n_pairs}.cfg"
        primes = first_n_primes(2 * n_pairs)
        path.write_text(f"n_pairs = {n_pairs}\nrounds = {rounds}\nprecision_digits = 300\n"
                        f"c1 = {','.join(map(str, primes[:n_pairs]))}\n"
                        f"c2 = {','.join(map(str, primes[n_pairs:]))}\n")
        return str(path)

    assert main(["test", "--config", short_schedule(100, 4), "--suite", "all", "--strings", "1",
                 "--pairs", "120000", "--out", str(tmp_path / "rep.csv")]) == 2
    assert "exhausted" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))
    # 1200 entries: enough bits for the checks and the battery, not the pairs.
    assert main(["repro", "--config", short_schedule(400, 3), "--strings", "1", "--dist-strings", "1",
                 "--pairs", "300001", "--out", str(tmp_path / "short")]) == 2
    assert "exhausted" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()
    with pytest.raises(SystemExit):
        main(["gen-bits", "--out", str(out)])  # --count is required
    with pytest.raises(SystemExit):
        main(["test", "--suite", "bytes", "--out", str(out)])


def test_test_subcommand_single_suite(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["test", "--suite", "dyads", "--strings", "3", "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["suite"] == "dyads"
    assert int(rows[0]["passed"]) + int(rows[0]["failed"]) == 3
    with (tmp_path / "report_strings.csv").open() as fh:
        detail = list(csv.DictReader(fh))
    assert len(detail) == 3
    assert {r["suite"] for r in detail} == {"dyads"}
    assert (tmp_path / "report.txt").exists()
    manifest = RunManifest.from_text((tmp_path / "report.csv.manifest").read_text())
    assert manifest.command == "test"
    for path in manifest.outputs:
        assert (tmp_path / path).exists() or out.parent.joinpath(path).exists()


def test_out_into_a_missing_directory(tmp_path):
    # Every file, the manifest included, lands in directories made for it.
    for argv, out in (
        (["test", "--suite", "dyads", "--strings", "1"], tmp_path / "missing" / "report.csv"),
        (["gen-bits", "--count", "3"], tmp_path / "a" / "b" / "bits.txt"),
    ):
        assert main(argv + ["--precision", "300", "--out", str(out)]) == 0
        manifest = RunManifest.from_text(Path(str(out) + ".manifest").read_text())
        assert manifest.outputs and all(Path(path).exists() for path in manifest.outputs)


def test_test_subcommand_pairs(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["test", "--suite", "pairs", "--pairs", "20000", "--out", str(out)])
    assert rc == 0
    assert not out.exists()  # no battery rows for the pairs suite
    with (tmp_path / "r_pairs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    total = sum(int(r["count"]) for r in rows)
    assert total == 20000
    assert sum(float(r["frequency"]) for r in rows) == pytest.approx(1.0, abs=1e-3)


def test_pair_table_walks_on_the_worker_pool(tmp_path, monkeypatch):
    # --workers reaches the pair table's walk, which gives the same table.
    pools = []

    class SpyPool(generator_mod.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(generator_mod, "ProcessPoolExecutor", SpyPool)
    tables = []
    for workers in ("2", "1"):
        monkeypatch.setattr(generator_mod, "_shared", {})
        out = tmp_path / f"w{workers}.csv"
        assert main(["test", "--suite", "pairs", "--precision", "300", "--pairs", "20000",
                     "--workers", workers, "--out", str(out)]) == 0
        tables.append((tmp_path / f"w{workers}_pairs.csv").read_bytes())
    assert pools == [2]
    assert tables[0] == tables[1]


def test_test_subcommand_distribution(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["test", "--suite", "distribution", "--strings", "5", "--out", str(out)])
    assert rc == 0
    with (tmp_path / "r_distribution.csv").open() as fh:
        rows = {r["name"]: r["value"] for r in csv.DictReader(fh)}
    assert rows["n_strings"] == "5"
    assert float(rows["within_3s"]) >= float(rows["within_1s"])


def test_repro_desk_smoke(tmp_path):
    out_dir = tmp_path / "repro"
    rc = main(["repro", "--strings", "4", "--dist-strings", "20", "--pairs", "20000",
               "--segments", "2", "--out", str(out_dir)])
    assert rc in (0, 1)
    summary = (out_dir / "summary.txt").read_text()
    assert "battery transitions" in summary
    assert "decimal digit uniformity" in summary
    manifest = RunManifest.from_text((out_dir / "repro.manifest").read_text())
    assert manifest.status == ("ok" if rc == 0 else "checks-failed")
    with (out_dir / "table_battery.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 5
    for path in manifest.outputs:
        assert (out_dir / path).exists() or out_dir.parent.joinpath(path).exists()


def test_root_spot_check_tests_the_stream_root(monkeypatch):
    # repro's "integer root brackets" row must fail, not raise, when the floor
    # root the stream reads is one too high or calls a prime a perfect power.
    assert stats_mod._root_spot_check(samples=20) == (True, "20 random floor-root brackets hold")
    floor_root = roots_mod._floor_root
    for bad_root in (lambda t: (t + 1, False), lambda t: (t, True)):
        monkeypatch.setattr(roots_mod, "_floor_root", lambda p, r, depth: bad_root(floor_root(p, r, depth)[0]))
        ok, detail = stats_mod._root_spot_check(samples=20)
        assert not ok
        assert detail.startswith("floor root bracket failed at p=")


def test_repro_full_scale_plan(tmp_path):
    out_dir = tmp_path / "plan"
    rc = main(["repro", "--scale", "paper", "--out", str(out_dir)])
    assert rc == 0
    plan = (out_dir / "plan.txt").read_text()
    assert "estimated runtime" in plan
    assert "10000" in plan
    manifest = RunManifest.from_text((out_dir / "repro.manifest").read_text())
    assert manifest.status == "plan-only"
    assert manifest.config.n_pairs == 10_000
    assert manifest.config.precision_digits == 100_000
    # The planned prefix stays inside round 1 here, so only r=2 is timed.
    assert re.findall(r"^ +r=(\d+) ", plan, re.M) == ["2"]
    # 1112 stream entries cover the pair table's 501, plus its cut entry.
    assert re.search(r"roots to extract +about (\d+)$", plan, re.M).group(1) == "2226"
    assert manifest.counts["segments"] == 100
    # 1000 segments of 100000 digits need 6.4 bits per digit, which 7115
    # entries of a 99950-digit window yield; the cut entry adds one more.
    seg_dir = tmp_path / "segments_plan"
    assert main(["repro", "--scale", "paper", "--segments", "1000", "--out", str(seg_dir)]) == 0
    plan = (seg_dir / "plan.txt").read_text()
    assert int(re.search(r"bits needed +(\d+)$", plan, re.M).group(1)) >= 640_000_000
    assert re.search(r"roots to extract +about (\d+)$", plan, re.M).group(1) == str(2 * (7115 + 1))
    assert RunManifest.from_text((seg_dir / "repro.manifest").read_text()).counts["segments"] == 1000
    # At desk scale the prefix spans blocks, so every round degree is
    # timed and listed with its own cost.
    desk_dir = tmp_path / "desk_plan"
    rc = main(["repro", "--scale", "paper", "--n-pairs", "200", "--rounds", "4",
               "--precision", "20000", "--out", str(desk_dir)])
    assert rc == 0
    plan = (desk_dir / "plan.txt").read_text()
    assert re.findall(r"^ +r=(\d+) ", plan, re.M) == ["2", "3", "5", "7"]
    assert all(re.search(rf"^ +r={d} +\d+\.\d ms  x \d+ roots$", plan, re.M) for d in (2, 3, 5, 7))
    # The pair table reads the stream's walk, so each root counts once: the
    # longer of the stream's entries (1000 pentad strings or 100000
    # distribution strings of bits at 0.9 bits per compared digit) and the
    # pair table's (50M digit pairs), over a 19950-digit window, plus the
    # one entry the pair table's cut falls in.
    roots = int(re.search(r"roots to extract +about (\d+)$", plan, re.M).group(1))
    entries_bits = math.ceil(max(1000 * 64_000, 100_000 * 1000) / (0.9 * 19_950))
    entries_pairs = math.ceil(50_000_000 / 19_950)
    assert roots == 2 * max(entries_bits, entries_pairs) + 2
    assert sum(int(n) for n in re.findall(r"ms  x (\d+) roots$", plan, re.M)) == roots


def test_module_entrypoint_rerun(worked_cfg_file, tmp_path, child_env):
    outs = []
    for name in ("m1.txt", "m2.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rootrand", "gen-bits", "--config", str(worked_cfg_file),
             "--count", "12", "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    m1 = _drop_timing((tmp_path / "m1.txt.manifest").read_text())
    m2 = _drop_timing((tmp_path / "m2.txt.manifest").read_text())
    assert m1.replace("m1.txt", "x") == m2.replace("m2.txt", "x")


def test_library_runs_without_test_only_dependencies(tmp_path, child_env):
    # scipy, mpmath and sympy serve the tests only, and gmpy2 is optional:
    # the full battery must run with every one of them unimportable.
    script = (
        "import sys\n"
        "for name in ('scipy', 'mpmath', 'sympy', 'gmpy2'):\n"
        "    sys.modules[name] = None\n"
        "import rootrand, rootrand.stats\n"
        "from rootrand.cli import main\n"
        "sys.exit(main(['test', '--suite', 'all', '--precision', '300', '--strings', '2',\n"
        f"               '--pairs', '20000', '--out', {str(tmp_path / 'r.csv')!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_manifest_round_trip():
    config = GeneratorConfig(n_pairs=2, rounds=2, precision_digits=90, skip_digits=40,
                             c1=(5, 7), c2=(17, 19), degrees=(3, 5))
    manifest = RunManifest(
        command="gen-bits",
        status="ok",
        config=config,
        options={"count": "9", "format": "packed"},
        counts={"bits": 9, "bytes_written": 2},
        outputs=("a.bin",),
        timing_seconds=0.125,
    )
    parsed = RunManifest.from_text(manifest.to_text())
    assert parsed == manifest
    assert parsed.to_text() == manifest.to_text()
    # The format is fixed: this text, written before the reader went one
    # table over the key groups, still reads back to the same manifest.
    text = """\
command = gen-bits
status = ok
config.n_pairs = 2
config.rounds = 2
config.precision_digits = 90
config.skip_digits = 40
config.block_index = 0
config.c1 = 5,7
config.c2 = 17,19
config.degrees = 3,5
option.count = 9
option.format = packed
count.bits = 9
count.bytes_written = 2
output.0 = a.bin
timing_seconds = 0.125
"""
    assert RunManifest.from_text(text) == manifest
    assert manifest.to_text() == text


def test_manifest_records_every_flag(worked_cfg_file, tmp_path):
    # A rerun from the manifest needs every flag the run parsed; the config
    # file and the config keys are recorded as config.* instead.
    out_dir = tmp_path / "repro"
    rc = main(["repro", "--precision", "300", "--strings", "2", "--dist-strings", "20", "--pairs", "20000",
               "--segments", "2", "--alpha", "0.01", "--out", str(out_dir)])
    assert rc in (0, 1)
    manifest = RunManifest.from_text((out_dir / "repro.manifest").read_text())
    assert manifest.options == {"alpha": "0.01", "dist_strings": "20", "out": str(out_dir), "pairs": "20000",
                                "scale": "desk", "segments": "2", "strings": "2", "workers": "1", "yes": "False"}
    assert manifest.config.precision_digits == 300
    out = tmp_path / "bits.txt"
    assert main(["gen-bits", "--config", str(worked_cfg_file), "--count", "3", "--workers", "2",
                 "--out", str(out)]) == 0
    manifest = RunManifest.from_text((tmp_path / "bits.txt.manifest").read_text())
    assert manifest.options == {"count": "3", "format": "ascii", "out": str(out), "workers": "2"}


# SHA-256 of every data file of four small runs. The test and gen-digits
# digests were recorded before the argument checks, the prime sieve and the
# pair walk were each merged into one place; the gen-bits (worker pool) and
# repro digests before the manifest build, the schedule walk, the stream
# extension, the chi-square verdict and the k-bit decoder were.
PINNED_OUTPUTS = {
    ("test", "report.csv"): "53b623644d54dc54506e7e2e2a0eda9363eea5157ef838ad0c37bb7f28c8746d",
    ("test", "report.txt"): "9c3e4b45d1f3c1a19e1cefdf7880a2d3907b1e631e6748129733e8e678658fe0",
    ("test", "report_distribution.csv"): "bbaf4a932dfc03c21aa2b169c5745e60768917f2df8e2eb297b27e435706acba",
    ("test", "report_pairs.csv"): "d587dc2109201c9cda92c9f273264d13c6b33e016f4b63be670af49cbaaea233",
    ("test", "report_strings.csv"): "9aa20d0fd52e4c29f3807325af65a6090d6ddb56a7db38ce412ef236b833fe2f",
    ("gen-digits", "digits.txt"): "cc07e8f792e7efab4635068df427db36ca238398911a688ec0fca2f57715f65b",
    ("gen-bits", "bits.bin"): "389a86fc6abff21e4630d608c6ff0493d99c9dc6746595ab6525d6a0d8cb26f6",
    ("repro", "digit_segments.csv"): "99e64d832f66119f44756362828ae96e801483ce26bbb5ff0224ec13681141f0",
    ("repro", "table_battery.csv"): "3f9e3595cd0b826b6138a88784559e847f05c0d2a37c39054c2f900dd3c90897",
    ("repro", "table_distribution.csv"): "613b80a82dafc4abcc0fd002ca952f3e45c9b11f81c6354d8c7dafae255709dc",
    ("repro", "table_pairs.csv"): "d587dc2109201c9cda92c9f273264d13c6b33e016f4b63be670af49cbaaea233",
    ("repro", "summary.txt"): "fc3c3a4d578ee1e0cf5346c4935f440807f1886aff01c1479c48699ad80c119e",
}


def test_data_files_pinned(floor_backend, tmp_path):
    runs = {
        "test": ["test", "--suite", "all", "--precision", "300", "--strings", "2", "--pairs", "20000",
                 "--out", str(tmp_path / "test" / "report.csv")],
        "gen-digits": ["gen-digits", "--count", "500", "--out", str(tmp_path / "gen-digits" / "digits.txt")],
        "gen-bits": ["gen-bits", "--n-pairs", "4", "--rounds", "4", "--precision", "600", "--count", "7000",
                     "--format", "packed", "--workers", "2", "--out", str(tmp_path / "gen-bits" / "bits.bin")],
        "repro": ["repro", "--precision", "300", "--strings", "20", "--dist-strings", "200",
                  "--pairs", "20000", "--segments", "2", "--out", str(tmp_path / "repro")],
    }
    for name, argv in runs.items():
        (tmp_path / name).mkdir()
        # The repro run passes 12 of its 15 checks, so it exits 1.
        assert main(argv) == (1 if name == "repro" else 0)
    manifest = RunManifest.from_text((tmp_path / "repro" / "repro.manifest").read_text())
    assert (manifest.status, manifest.counts["checks_passed"], manifest.counts["checks_total"]) == (
        "checks-failed", 12, 15)
    written = {
        (path.parent.name, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*/*")
        if path.suffix != ".manifest"  # manifests hold timings
    }
    assert written == PINNED_OUTPUTS
