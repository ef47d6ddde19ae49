"""The stable facade contract (`repro.api`) and the deprecation policy.

``repro.api`` is the one import downstream code is told to rely on, so
its surface is pinned here: ``__all__`` and every signature are
snapshotted literally — any drift fails this file and must be a
deliberate, reviewed change.  The second half pins the deprecation
policy: an alias is removed once its replacement has been stable for
two releases, after which it must raise (the CAMMatchCost move to the
spec layer, the ``repro.serve`` facade redesign;
``tests/test_spec_consistency.py`` covers the old Table 1 constant
aliases), and a dead option — ``max_wait_us``, the timer window the
work-conserving batcher dropped — is refused at each public spelling
now that its two-release window has closed.  ``workers``, dead since
each server runs one engine execution at a time, is inside its window:
each spelling warns once per process and forwards nothing.
"""

from __future__ import annotations

import inspect
import io
import warnings

import pytest

from repro import api
from repro.serve import server as server_module
from repro.serve.cluster import ClusterServer
from repro.serve.server import KernelServer

# The pinned facade: name -> ordered {parameter: default} snapshot.
# inspect.Parameter.empty (no default) is spelled as the string "<required>".
EXPECTED_SIGNATURES = {
    "evaluate": {
        "application": "'dna'",
        "dna_packing": "'paper'",
        "spec": "None",
        "overrides": "None",
    },
    "list_boards": {
        "rows": "32",
        "cols": "32",
        "spec": "None",
        "overrides": "None",
    },
    "make_board": {
        "kind": "None",
        "rows": "32",
        "cols": "32",
        "variability": "0.0",
        "dac_bits": "0",
        "adc_bits": "0",
        "fault_rate": "0.0",
        "seed": "None",
        "spec": "None",
        "overrides": "None",
    },
    "plan": {
        "trace": "None",
        "spec": "None",
        "overrides": "None",
    },
    "run_kernel": {
        "kernel": "<required>",
        "width": "32",
        "operands": "None",
        "backend": "'functional'",
        "words": "None",
        "spec": "None",
        "overrides": "None",
    },
    "connect": {
        "target": "'local'",
        "shards": "1",
        "replicas": "1",
        "quota": "None",
        "max_batch_size": "64",
        "queue_limit": "1024",
        "workers": "None",
        "retries": "2",
        "cache_capacity": "1024",
        "spec": "None",
        "overrides": "None",
    },
    "request": {
        "kernel": "''",
        "id": "''",
        "kind": "'kernel'",
        "width": "32",
        "operands": "None",
        "backend": "'auto'",
        "params": "None",
        "overrides": "None",
        "deadline_s": "None",
        "trace_id": "''",
        "tenant": "''",
    },
    "serve": {
        "input": "None",
        "output": "None",
        "shards": "1",
        "replicas": "1",
        "quota": "None",
        "max_batch_size": "64",
        "queue_limit": "1024",
        "workers": "None",
        "retries": "2",
        "cache_capacity": "1024",
        "spec": "None",
        "overrides": "None",
        "metrics_port": "None",
    },
    "solve_crossbar": {
        "conductances": "<required>",
        "row_drive": "<required>",
        "col_drive": "<required>",
        "wire_resistance": "None",
        "driver_resistance": "0.0",
        "backend": "'auto'",
    },
    "sweep": {
        "grid": "None",
        "workers": "None",
        "serial": "False",
        "keep_ledgers": "True",
        "spec": "None",
        "overrides": "None",
    },
    "table2": {
        "dna_packing": "'paper'",
        "spec": "None",
        "overrides": "None",
    },
}


class TestFacadeSurface:
    def test_all_is_pinned_and_sorted(self):
        assert api.__all__ == sorted(EXPECTED_SIGNATURES)

    def test_every_name_resolves_to_a_callable(self):
        for name in api.__all__:
            assert callable(getattr(api, name)), name

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIGNATURES))
    def test_signature_snapshot(self, name):
        signature = inspect.signature(getattr(api, name))
        snapshot = {
            parameter.name: ("<required>"
                             if parameter.default is inspect.Parameter.empty
                             else repr(parameter.default))
            for parameter in signature.parameters.values()
        }
        assert snapshot == EXPECTED_SIGNATURES[name], (
            f"api.{name} signature drifted — if intentional, update the "
            "snapshot here and note it in the changelog")

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIGNATURES))
    def test_every_parameter_is_keyword_only(self, name):
        signature = inspect.signature(getattr(api, name))
        for parameter in signature.parameters.values():
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"api.{name}({parameter.name}) must be keyword-only: the "
                "facade's stability contract forbids positional coupling")

    def test_facade_answers_match_core(self):
        from repro.core import table2 as core_table2

        facade = api.table2()
        core = core_table2()
        assert facade.metrics == core.metrics
        assert facade.spec_digest == core.spec_digest

    def test_evaluate_flattens_both_architectures(self):
        metrics = api.evaluate(application="math")
        assert set(metrics) == {
            "conventional.energy_delay_per_op",
            "conventional.computing_efficiency",
            "conventional.performance_per_area",
            "cim.energy_delay_per_op",
            "cim.computing_efficiency",
            "cim.performance_per_area",
            "improvement.energy_delay",
            "improvement.computing_efficiency",
        }
        with pytest.raises(Exception):
            api.evaluate(application="weather")

    def test_run_kernel_by_name(self):
        result = api.run_kernel(kernel="adder", width=8,
                                operands={"a": [1, 2], "b": [3, 4]})
        assert list(result.word("sum")) == [4, 6]

    def test_make_board_and_list_boards(self):
        board = api.make_board(kind="noisy", rows=4, cols=4,
                               variability=0.1, seed=3)
        assert board.kind == "noisy"
        assert (board.rows, board.cols) == (4, 4)
        catalog = api.list_boards(rows=4, cols=4)
        kinds = {entry["kind"] for entry in catalog}
        assert kinds == {"ideal", "noisy", "hardware"}
        assert sum(entry["default"] for entry in catalog) == 1
        with pytest.raises(Exception):
            api.make_board(kind="ideal", variability=0.5)

    def test_overrides_derive_the_spec(self):
        from repro.spec import TABLE1

        hot = api.table2(
            overrides={"memristor.write_energy":
                       2 * TABLE1.memristor.write_energy})
        assert hot.spec_digest != api.table2().spec_digest


# Shims removed once their replacements had been stable for two
# releases (the old Table 1 constant aliases are covered by
# ``tests/test_spec_consistency.py::test_removed_core_aliases_raise``).
REMOVED_ALIASES = [
    ("repro.engine.builtins", "CAMMatchCost"),
    ("repro.serve", "KernelServer"),
    ("repro.serve", "serve_jsonl"),
]


# The public spellings that took ``max_wait_us`` until its removal.
MAX_WAIT_US_SPELLINGS = {
    "KernelServer": lambda: KernelServer(max_wait_us=0.0),
    "ClusterServer": lambda: ClusterServer(max_wait_us=0.0),
    "api.connect": lambda: api.connect(max_wait_us=0.0),
    "api.serve": lambda: api.serve(
        input=io.StringIO(""), output=io.StringIO(), max_wait_us=0.0),
}


def _connect_and_close(**options):
    with api.connect(**options) as client:
        return client.stats()


def _cli_serve(tmp_path, *flags):
    from repro.__main__ import main

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    return main(["serve", "--input", str(empty), *flags])


# The public spellings of ``workers``, each called with the option.
WORKERS_SPELLINGS = {
    "KernelServer(workers=)": lambda tmp_path: KernelServer(
        workers=3).stats(),
    "ClusterServer(workers=)": lambda tmp_path: ClusterServer(
        workers=3).stats(),
    "api.connect(workers=)": lambda tmp_path: _connect_and_close(workers=3),
    "api.serve(workers=)": lambda tmp_path: api.serve(
        input=io.StringIO(""), output=io.StringIO(), workers=3),
    "repro serve --workers": lambda tmp_path: _cli_serve(
        tmp_path, "--workers", "3"),
}


class TestDeprecationPolicy:
    @pytest.mark.parametrize("module_name,name", REMOVED_ALIASES)
    def test_removed_alias_raises(self, module_name, name):
        import importlib

        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError):
            getattr(module, name)

    @pytest.mark.parametrize("spelling", sorted(MAX_WAIT_US_SPELLINGS))
    def test_max_wait_us_is_refused(self, spelling):
        with pytest.raises(TypeError, match="max_wait_us"):
            MAX_WAIT_US_SPELLINGS[spelling]()

    def test_cli_max_wait_us_is_refused(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--input", str(empty), "--max-wait-us", "10"])
        assert exit_info.value.code == 2
        assert "--max-wait-us" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", sorted(WORKERS_SPELLINGS))
    def test_workers_warns_once_and_is_ignored(self, spelling, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(server_module, "_WARNED", set())
        call = WORKERS_SPELLINGS[spelling]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = call(tmp_path)
        # One warning, naming this spelling: a forwarded value would
        # also warn from the server constructor it reached.
        assert [str(w.message).split(" is ")[0] for w in caught] == [
            spelling]
        assert caught[0].category is DeprecationWarning
        if isinstance(outcome, dict):
            per_server = outcome.get("servers", 1)
            assert outcome["workers"] == per_server
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(tmp_path)  # the second use in a process stays quiet

    def test_unknown_attribute_still_raises(self):
        import repro.serve
        from repro.core import presets

        with pytest.raises(AttributeError):
            presets.NOT_A_THING
        with pytest.raises(AttributeError):
            repro.serve.NOT_A_THING
