"""The public names of every module. The benchmark's traced replay wraps
each function listed here, so a name dropped from an __all__ silently
loses its spans; a change to these lists is an API change."""

import ast
import importlib
from pathlib import Path

import pytest

PUBLIC_NAMES = {
    "rootrand": [
        "__version__", "ConfigError", "StreamExhausted", "GeneratorConfig", "ScheduleEntry",
        "StreamCache", "TestReport", "BatchResult",
        "DistributionSummary", "PairTally", "int_nth_root", "root_fractional_digits",
        "first_n_primes", "nth_prime", "prime_pair_sets", "schedule", "compare_digits",
        "operator_O", "concat", "generate_bits", "pair_stream", "bits_to_decimal", "digits_stream",
        "chi_square_statistic", "chi_square_critical", "transitions_test", "ngram_block_test",
        "batch_test", "ones_count_distribution", "pair_frequency_table",
    ],
    "rootrand.generator": [
        "ConfigError", "StreamExhausted", "GeneratorConfig", "ScheduleEntry", "StreamCache",
        "schedule", "compare_digits", "operator_O", "concat", "generate_bits", "pair_stream",
        "bits_to_decimal", "digits_stream",
    ],
    "rootrand.stats": [
        "TestReport", "BatchResult", "DistributionSummary", "PairTally", "chi_square_statistic",
        "chi_square_critical", "transitions_test", "ngram_block_test", "batch_test", "binomial_band",
        "digit_uniformity", "ones_count_distribution", "pair_frequency_table", "repro_report",
        "repro_plan", "TEST_RUNNERS", "DEFAULT_STRING_LENGTHS",
    ],
    "rootrand.roots": ["int_nth_root", "root_fractional_digits"],
    "rootrand.primes": ["first_n_primes", "prime_pair_sets", "nth_prime", "is_prime"],
    "rootrand.cli": ["RunManifest", "main", "build_parser", "load_config_file", "resolve_config"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_pinned(module):
    mod = importlib.import_module(module)
    assert mod.__all__ == PUBLIC_NAMES[module]
    assert all(hasattr(mod, name) for name in mod.__all__)


SOURCE = Path(__file__).resolve().parent.parent / "src" / "rootrand"
CLI_SOURCE = SOURCE / "cli.py"


def test_cli_imports_only_public_library_names():
    # The CLI parses flags and writes files; every number it reports is
    # computed behind a public name. The private module _checks lends it only
    # its public argument checks.
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(CLI_SOURCE.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") or node.module is None
        or node.module.startswith("_") and node.module != "_checks"
    ]
    assert private == []


def test_only_roots_reads_its_private_names():
    # Which floor root answers is decided in roots alone: no other module
    # imports a private roots name, which would copy its binding by value.
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(SOURCE.glob("*.py")) if path.name != "roots.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "roots"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_holds_no_verdict():
    # repro's thresholds and reference values live in stats.repro_report;
    # the CLI only writes what it returns.
    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    thresholds = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value in (0.009, 0.011, 0.001, 0.95, 1.5, 68.27, 95.35, 99.72)
    ]
    verdict_imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("binomial_band", "chi_square_critical")
    ]
    assert thresholds == [] and verdict_imports == []


def _callers(tree: ast.AST, names: set, where: str = "") -> set:
    """Qualified names of the functions and methods that call any of names."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        inner = f"{where}.{child.name}".lstrip(".") if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(child, ast.Call) and ast.unparse(child.func).rsplit(".", 1)[-1] in names:
            found.add(inner)
        found |= _callers(child, names, inner)
    return found


def test_only_main_writes():
    # Subcommands only compute: main writes every file, the manifest
    # included, and every directory through _write_files, and prints.
    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    assert _callers(tree, {"write_bytes", "write_text", "open", "mkdir"}) == {"_write_files"}
    assert _callers(tree, {"print"}) == {"main"}


def _schedule_entry_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "ScheduleEntry"
    ]


def test_one_schedule_source():
    # Entry k of a stream is computed from (config, k) in one place; every
    # walk and every cut entry reads it there.
    calls = {path.name: len(_schedule_entry_calls(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SOURCE.glob("*.py"))}
    generator = ast.parse((SOURCE / "generator.py").read_text(encoding="utf-8"))
    (entries,) = [node for node in generator.body if isinstance(node, ast.FunctionDef) and node.name == "_entries"]
    assert sum(calls.values()) == 1 and len(_schedule_entry_calls(entries)) == 1


def test_benchmark_contract():
    """The names the benchmark in perfbench/ reaches into.

    Its traced replay rebinds roots' root_fractional_digits in generator to
    record each digit window, checks that both process-wide caches start
    cold, and rebuilds the stream through the public pipeline. A change
    that breaks any of these makes perfbench report "correct": false, so
    the benchmark fails it; such a change belongs in a change to the
    benchmark that also edits perfbench.
    """
    from rootrand import generator, roots

    tree = ast.parse((SOURCE / "generator.py").read_text(encoding="utf-8"))
    (windows,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_entry_windows"]
    called = [ast.unparse(node.func) for node in ast.walk(windows) if isinstance(node, ast.Call)]
    assert called == ["root_fractional_digits", "root_fractional_digits"]
    assert isinstance(roots._HAVE_GMPY2, bool)
    assert isinstance(roots._digit_cache, dict) and isinstance(generator._shared, dict)
    assert callable(generator.StreamCache.prefix)
    for name in ("schedule", "operator_O", "concat", "generate_bits"):
        assert callable(getattr(generator, name))
    assert callable(roots.int_nth_root)
