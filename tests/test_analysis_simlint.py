"""Per-rule tests for the simlint AST pass.

Every rule code gets at least one positive fixture (a snippet that must
trigger it) and one negative fixture (a close-but-legal snippet that must
not).  Snippets are linted under a pretend module path so zone handling is
exercised too.
"""

import textwrap

import pytest

from repro.analysis.diagnostics import DiagnosticSink, Severity
from repro.analysis.rules import all_rules, get_rule, resolve_codes
from repro.analysis.simlint import lint_source


def lint(code, module="repro.sim.fixture", path="src/repro/sim/fixture.py"):
    return lint_source(textwrap.dedent(code), path=path, module=module)


def codes(code, module="repro.sim.fixture", path="src/repro/sim/fixture.py"):
    return [d.code for d in lint(code, module=module, path=path)]


class TestSIM100Syntax:
    def test_unparsable_file_reports_sim100(self):
        assert codes("def broken(:\n    pass") == ["SIM100"]


class TestSIM101WallClock:
    def test_time_time_flagged(self):
        assert "SIM101" in codes("import time\nstamp = time.time()")

    def test_time_monotonic_flagged(self):
        assert "SIM101" in codes("import time\nstamp = time.monotonic()")

    def test_perf_counter_alias_flagged(self):
        assert "SIM101" in codes(
            "from time import perf_counter as pc\nstamp = pc()"
        )

    def test_datetime_now_flagged(self):
        assert "SIM101" in codes(
            "from datetime import datetime\nstamp = datetime.now()"
        )

    def test_engine_now_not_flagged(self):
        assert codes("def f(engine):\n    return engine.now") == []

    def test_runtime_package_not_exempt(self):
        # No package named runtime is exempt from the virtual-time rules.
        assert "SIM101" in codes(
            "import time\nstamp = time.time()",
            module="repro.runtime.fixture",
            path="src/repro/runtime/fixture.py",
        )


class TestSIM102Random:
    def test_module_level_random_flagged(self):
        assert "SIM102" in codes("import random\nx = random.random()")

    def test_numpy_random_alias_flagged(self):
        assert "SIM102" in codes("import numpy as np\nx = np.random.rand(4)")

    def test_unseeded_constructor_flagged(self):
        assert "SIM102" in codes("import random\nrng = random.Random()")

    def test_seeded_constructor_ok(self):
        assert codes("import random\nrng = random.Random(42)\nx = rng.random()") == []

    def test_seeded_default_rng_ok(self):
        assert (
            codes("import numpy as np\nrng = np.random.default_rng(7)") == []
        )

    def test_unseeded_default_rng_flagged(self):
        assert "SIM102" in codes(
            "import numpy as np\nrng = np.random.default_rng()"
        )


class TestSIM103TimeEquality:
    def test_engine_now_equality_flagged(self):
        assert "SIM103" in codes("def f(engine):\n    return engine.now == 3.5")

    def test_seconds_suffix_inequality_flagged(self):
        assert "SIM103" in codes("def f(a, b):\n    return a.io_seconds != b.io_seconds")

    def test_epsilon_comparison_ok(self):
        snippet = """
        from repro.sim.engine import times_close

        def f(engine):
            return times_close(engine.now, 3.5)
        """
        assert codes(snippet) == []

    def test_ordering_comparisons_ok(self):
        assert codes("def f(engine, t):\n    return engine.now >= t") == []

    def test_integer_sentinel_ok(self):
        # `iteration == 0`-style exact sentinels are fine; so is comparing
        # a time-like name against an int constant (exact by construction).
        assert codes("def f(start):\n    return start == 0") == []


class TestSIM104MutableDefault:
    def test_list_default_flagged(self):
        assert "SIM104" in codes("def f(items=[]):\n    return items")

    def test_dict_call_default_flagged(self):
        assert "SIM104" in codes("def f(table=dict()):\n    return table")

    def test_none_default_ok(self):
        assert codes("def f(items=None):\n    return items or []") == []

    def test_tuple_default_ok(self):
        assert codes("def f(items=()):\n    return items") == []


class TestSIM105BlockingIO:
    def test_open_flagged_in_sim(self):
        assert "SIM105" in codes("def f(p):\n    return open(p).read()")

    def test_sleep_flagged_in_sim(self):
        assert "SIM105" in codes("import time\ndef f():\n    time.sleep(1)")

    def test_socket_flagged_in_sim(self):
        assert "SIM105" in codes("import socket\ns = socket.socket()")

    def test_experiments_zone_may_open_files(self):
        # repro.experiments is outside the blocking zone (report writing is
        # its job) but inside the wall-clock zone.
        snippet = "def f(p):\n    return open(p).read()"
        assert (
            codes(
                snippet,
                module="repro.experiments.fixture",
                path="src/repro/experiments/fixture.py",
            )
            == []
        )


class TestSIM106MagicLiteral:
    def test_power_of_two_int_flagged(self):
        assert "SIM106" in codes("CHUNK = 4096")

    def test_power_of_two_float_flagged(self):
        assert "SIM106" in codes("BUF = 24 * 1024.0")

    def test_pow_expression_flagged(self):
        assert "SIM106" in codes("def f(n):\n    return n / 2**30")

    def test_float_power_of_ten_flagged(self):
        assert "SIM106" in codes("RATE = 3.0 * 1e9")

    def test_integer_count_ok(self):
        # Integer powers of ten are counts (10 million particles), not sizes.
        assert codes("PARTICLES = 10_000_000") == []

    def test_units_constants_ok(self):
        snippet = """
        from repro.units import GiB, KiB

        CHUNK = 4 * KiB
        TOTAL = 3 * GiB
        """
        assert codes(snippet) == []

    def test_units_module_itself_exempt(self):
        assert (
            codes("KiB = 1024", module="repro.units", path="src/repro/units.py")
            == []
        )


class TestSIM108TraceRecordAppend:
    SNIPPET = "def f(tracer, record):\n    tracer.records.append(record)"

    def test_direct_append_flagged(self):
        assert "SIM108" in codes(self.SNIPPET)

    def test_flagged_through_any_receiver(self):
        assert "SIM108" in codes(
            "def f(result, record):\n"
            "    result.tracer.records.append(record)"
        )

    def test_tracer_module_itself_exempt(self):
        assert (
            codes(
                self.SNIPPET,
                module="repro.sim.trace",
                path="src/repro/sim/trace.py",
            )
            == []
        )

    def test_path_prefixed_tracer_module_exempt(self):
        # Linting from the repo root yields path-derived module names.
        assert (
            codes(
                self.SNIPPET,
                module="src.repro.sim.trace",
                path="/somewhere/src/repro/sim/trace.py",
            )
            == []
        )

    def test_obs_package_exempt(self):
        assert (
            codes(
                self.SNIPPET,
                module="repro.obs.spans",
                path="src/repro/obs/spans.py",
            )
            == []
        )

    def test_record_call_not_flagged(self):
        assert (
            codes("def f(tracer):\n    tracer.record('w', 0, 'x', 0.0, 1.0)")
            == []
        )

    def test_other_records_lists_flagged_too(self):
        # Conservative by design: any attribute named `records` is treated
        # as a trace-record list in simulator code.
        assert "SIM108" in codes(
            "def f(self, item):\n    self.records.append(item)"
        )


class TestSIM109StrayHostClock:
    SNIPPET = "import time\ndef f():\n    return time.perf_counter()"

    def test_analysis_zone_flagged(self):
        # The analysis package is SIM101-exempt but still not a sanctioned
        # host-clock reader.
        assert "SIM109" in codes(
            self.SNIPPET,
            module="repro.analysis.fixture",
            path="src/repro/analysis/fixture.py",
        )

    def test_time_time_also_flagged(self):
        assert "SIM109" in codes(
            "import time\nstamp = time.time()",
            module="repro.analysis.fixture",
            path="src/repro/analysis/fixture.py",
        )

    def test_hostmetrics_module_sanctioned(self):
        assert (
            codes(
                self.SNIPPET,
                module="repro.obs.hostmetrics",
                path="src/repro/obs/hostmetrics.py",
            )
            == []
        )

    def test_path_prefixed_hostmetrics_sanctioned(self):
        # Linting from the repo root yields path-derived module names.
        assert (
            codes(
                self.SNIPPET,
                module="src.repro.obs.hostmetrics",
                path="/somewhere/src/repro/obs/hostmetrics.py",
            )
            == []
        )

    def test_runtime_package_not_sanctioned(self):
        # A runtime package is neither a sanctioned host-clock reader nor
        # exempt from the virtual-time rules, so its clock read is SIM101.
        found = codes(
            self.SNIPPET,
            module="repro.runtime.threaded",
            path="src/repro/runtime/threaded.py",
        )
        assert "SIM101" in found and "SIM109" not in found

    def test_other_obs_modules_still_sim101(self):
        # The rest of repro.obs stays in the wall-clock zone: a stray
        # perf_counter in the exporter is SIM101, not SIM109.
        assert "SIM101" in codes(
            self.SNIPPET,
            module="repro.obs.export",
            path="src/repro/obs/export.py",
        )

    def test_service_package_sanctioned(self):
        # The scheduling service reads the host clock legitimately
        # (deadlines, backoff, cache-lookup timing).
        assert (
            codes(
                self.SNIPPET,
                module="repro.service.scheduler",
                path="src/repro/service/scheduler.py",
            )
            == []
        )


class TestSIM110ConcurrencyImport:
    def test_multiprocessing_in_sim_flagged(self):
        assert "SIM110" in codes("import multiprocessing")

    def test_concurrent_futures_from_import_flagged(self):
        assert "SIM110" in codes(
            "from concurrent.futures import ProcessPoolExecutor",
            module="repro.obs.campaign",
            path="src/repro/obs/campaign.py",
        )

    def test_threading_and_signal_flagged(self):
        assert "SIM110" in codes("import threading")
        assert "SIM110" in codes(
            "import signal",
            module="repro.workflow.runner",
            path="src/repro/workflow/runner.py",
        )

    def test_aliased_import_still_flagged(self):
        assert "SIM110" in codes("import multiprocessing as mp")

    def test_service_package_sanctioned(self):
        assert (
            codes(
                "from concurrent.futures import ProcessPoolExecutor\nimport signal",
                module="repro.service.pool",
                path="src/repro/service/pool.py",
            )
            == []
        )

    def test_runtime_package_not_sanctioned(self):
        assert "SIM110" in codes(
            "import threading",
            module="repro.runtime.threaded",
            path="src/repro/runtime/threaded.py",
        )

    def test_similarly_named_modules_not_flagged(self):
        # Only the concurrency roots count — not arbitrary modules that
        # merely start with the same letters.
        assert (
            codes("import signals_toolkit\nfrom concurrency import x") == []
        )


class TestSIM111HotpathAllocation:
    def test_dict_literal_in_marked_loop_flagged(self):
        assert "SIM111" in codes(
            """
            def solve(flows):  # simlint: hotpath
                for f in flows:
                    state = {}
            """
        )

    def test_dict_call_and_resource_load_flagged(self):
        snippet = """
            def solve(flows):  # simlint: hotpath
                while flows:
                    a = dict()
                    b = ResourceLoad()
        """
        assert codes(snippet).count("SIM111") == 2

    def test_dict_comprehension_inside_loop_flagged(self):
        assert "SIM111" in codes(
            """
            def solve(flows):  # simlint: hotpath
                for f in flows:
                    loads = {r: 0.0 for r in f.resources}
            """
        )

    def test_setup_allocation_outside_loop_not_flagged(self):
        assert (
            codes(
                """
                def solve(flows):  # simlint: hotpath
                    loads = {r: ResourceLoad() for f in flows for r in f.resources}
                    for f in flows:
                        loads[f].reset()
                """
            )
            == []
        )

    def test_unmarked_function_not_flagged(self):
        assert (
            codes(
                """
                def setup(flows):
                    for f in flows:
                        state = {}
                """
            )
            == []
        )

    def test_marker_must_be_in_a_comment(self):
        assert (
            codes(
                """
                def solve(flows):
                    marker = "simlint: hotpath"
                    for f in flows:
                        state = {}
                """
            )
            == []
        )

    def test_other_calls_in_marked_loop_not_flagged(self):
        assert (
            codes(
                """
                def solve(flows):  # simlint: hotpath
                    for f in flows:
                        f.rate = compute(f)
                """
            )
            == []
        )

    def test_nested_function_in_marked_body_flagged(self):
        assert "SIM111" in codes(
            """
            def outer():
                def solve(flows):  # simlint: hotpath
                    for f in flows:
                        return ResourceLoad()
            """
        )

    def test_noqa_suppresses(self):
        assert (
            codes(
                """
                def solve(flows):  # simlint: hotpath
                    for f in flows:
                        state = {}  # noqa: SIM111
                """
            )
            == []
        )

    def test_numpy_allocators_flagged_in_hotpath_loop(self):
        snippet = """
            import numpy as np

            def solve(classes):  # simlint: hotpath
                for _ in range(24):
                    rates = np.zeros(len(classes))
                    scratch = np.empty_like(rates)
        """
        assert codes(snippet).count("SIM111") == 2

    def test_numpy_from_import_resolved(self):
        assert "SIM111" in codes(
            """
            from numpy import zeros

            def solve(classes):  # simlint: hotpath
                while classes:
                    buf = zeros(8)
            """
        )

    def test_numpy_allocation_outside_loop_not_flagged(self):
        assert (
            codes(
                """
                import numpy as np

                def solve(classes):  # simlint: hotpath
                    rates = np.zeros(len(classes))
                    for _ in range(24):
                        rates.fill(0.0)
                """
            )
            == []
        )

    def test_unresolved_zeros_method_not_flagged(self):
        # A ``zeros`` attribute on some other object is not numpy; only
        # resolved dotted origins match the numpy allocator list.
        assert (
            codes(
                """
                def solve(pool):  # simlint: hotpath
                    for _ in range(24):
                        buf = pool.zeros(8)
                """
            )
            == []
        )


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        assert codes("CHUNK = 4096  # noqa: SIM106") == []

    def test_noqa_bare_suppresses(self):
        assert codes("CHUNK = 4096  # noqa") == []

    def test_noqa_other_code_keeps_finding(self):
        assert codes("CHUNK = 4096  # noqa: SIM101") == ["SIM106"]


class TestRegistryAndFiltering:
    def test_every_sim_rule_has_a_registry_entry(self):
        for code in (
            "SIM100",
            "SIM101",
            "SIM102",
            "SIM103",
            "SIM104",
            "SIM105",
            "SIM106",
            "SIM108",
            "SIM109",
            "SIM110",
        ):
            rule = get_rule(code)
            assert rule.code == code
            assert rule.severity is Severity.ERROR

    def test_rule_codes_unique_and_sorted(self):
        listed = [r.code for r in all_rules()]
        assert listed == sorted(set(listed))

    def test_resolve_codes_expands_prefixes(self):
        resolved = resolve_codes(["SIM10"])
        assert "SIM101" in resolved and "SPEC201" not in resolved

    def test_resolve_codes_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_codes(["NOPE999"])

    def test_select_filter_applied_through_sink(self):
        sink = DiagnosticSink(select=resolve_codes(["SIM101"]))
        lint_source(
            "import time\nx = time.time()\nCHUNK = 4096",
            path="src/repro/sim/fixture.py",
            sink=sink,
        )
        assert [d.code for d in sink.diagnostics] == ["SIM101"]

    def test_ignore_filter_applied_through_sink(self):
        sink = DiagnosticSink(ignore=frozenset({"SIM106"}))
        lint_source(
            "import time\nx = time.time()\nCHUNK = 4096",
            path="src/repro/sim/fixture.py",
            sink=sink,
        )
        assert [d.code for d in sink.diagnostics] == ["SIM101"]
