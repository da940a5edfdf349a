import csv
import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from rootrand import GeneratorConfig, bits_to_decimal, digits_stream, generate_bits
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
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("rounds = 1\nn_pairs = abc\n")
    assert main(["gen-bits", "--config", str(malformed), "--count", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{malformed}:2:" in err
    assert "n_pairs" in err and "'abc'" in err
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
    # At desk scale the prefix spans blocks, so every round degree is
    # timed and listed with its own cost.
    desk_dir = tmp_path / "desk_plan"
    rc = main(["repro", "--scale", "paper", "--n-pairs", "200", "--rounds", "4",
               "--precision", "20000", "--out", str(desk_dir)])
    assert rc == 0
    plan = (desk_dir / "plan.txt").read_text()
    assert re.findall(r"^ +r=(\d+) ", plan, re.M) == ["2", "3", "5", "7"]
    assert all(re.search(rf"^ +r={d} +\d+\.\d ms  x \d+ roots$", plan, re.M) for d in (2, 3, 5, 7))
    # The stream's entries and the pair table's are extracted separately:
    # 1000 pentad strings or 100000 distribution strings of bits at 0.9 bits
    # per compared digit, and 50M digit pairs, over a 19950-digit window.
    roots = int(re.search(r"roots to extract +about (\d+)$", plan, re.M).group(1))
    entries_bits = math.ceil(max(1000 * 64_000, 100_000 * 1000) / (0.9 * 19_950))
    entries_pairs = math.ceil(50_000_000 / 19_950)
    assert roots == 2 * (entries_bits + entries_pairs)
    assert sum(int(n) for n in re.findall(r"ms  x (\d+) roots$", plan, re.M)) == roots


def test_module_entrypoint_rerun(worked_cfg_file, tmp_path):
    outs = []
    for name in ("m1.txt", "m2.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rootrand", "gen-bits", "--config", str(worked_cfg_file),
             "--count", "12", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    m1 = _drop_timing((tmp_path / "m1.txt.manifest").read_text())
    m2 = _drop_timing((tmp_path / "m2.txt.manifest").read_text())
    assert m1.replace("m1.txt", "x") == m2.replace("m2.txt", "x")


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


# SHA-256 of every data file of two small runs, recorded before the argument
# checks, the prime sieve and the pair walk were each merged into one place.
PINNED_OUTPUTS = {
    ("test", "report.csv"): "53b623644d54dc54506e7e2e2a0eda9363eea5157ef838ad0c37bb7f28c8746d",
    ("test", "report.txt"): "9c3e4b45d1f3c1a19e1cefdf7880a2d3907b1e631e6748129733e8e678658fe0",
    ("test", "report_distribution.csv"): "bbaf4a932dfc03c21aa2b169c5745e60768917f2df8e2eb297b27e435706acba",
    ("test", "report_pairs.csv"): "d587dc2109201c9cda92c9f273264d13c6b33e016f4b63be670af49cbaaea233",
    ("test", "report_strings.csv"): "9aa20d0fd52e4c29f3807325af65a6090d6ddb56a7db38ce412ef236b833fe2f",
    ("gen-digits", "digits.txt"): "cc07e8f792e7efab4635068df427db36ca238398911a688ec0fca2f57715f65b",
}


def test_data_files_pinned(tmp_path):
    runs = {
        "test": ["test", "--suite", "all", "--precision", "300", "--strings", "2", "--pairs", "20000",
                 "--out", str(tmp_path / "test" / "report.csv")],
        "gen-digits": ["gen-digits", "--count", "500", "--out", str(tmp_path / "gen-digits" / "digits.txt")],
    }
    for name, argv in runs.items():
        (tmp_path / name).mkdir()
        assert main(argv) == 0
    written = {
        (path.parent.name, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*/*")
        if path.suffix != ".manifest"  # manifests hold timings
    }
    assert written == PINNED_OUTPUTS
