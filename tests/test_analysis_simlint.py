"""Per-rule tests for the simlint AST pass.

Every rule code gets at least one positive fixture (a snippet that must
trigger it) and one negative fixture (a close-but-legal snippet that must
not).  Snippets are linted under a pretend module path so zone handling is
exercised too.
"""

import textwrap

from repro.analysis.diagnostics import Severity
from repro.analysis.rules import all_rules, get_rule
from repro.analysis.simlint import lint_source


def lint(code, module="repro.sim.fixture", path="src/repro/sim/fixture.py"):
    return lint_source(textwrap.dedent(code), path=path, module=module)


def codes(code, module="repro.sim.fixture", path="src/repro/sim/fixture.py"):
    return [d.code for d in lint(code, module=module, path=path)]


class TestSIM100Syntax:
    def test_unparsable_file_reports_sim100(self):
        assert codes("def broken(:\n    pass") == ["SIM100"]


class TestSIM103TimeEquality:
    def test_engine_now_equality_flagged(self):
        assert "SIM103" in codes("def f(engine):\n    return engine.now == 3.5")
        # The DESIGN §7a.1 injection: Engine.run batching without times_close.
        assert "SIM103" in codes("def f(time, head_time):\n    return time != head_time")

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


class TestSIM105BlockingIO:
    def test_open_flagged_in_sim(self):
        assert "SIM105" in codes("def f(p):\n    return open(p).read()")
        # The DESIGN §7a.1 injection: a write in FlowNetwork._recompute.
        assert "SIM105" in codes(
            """
            import os

            def _recompute(now):
                with open(os.devnull, "w") as sink:
                    sink.write(repr(now))
            """
        )

    def test_sleep_flagged_in_sim(self):
        assert "SIM105" in codes("import time\ndef f():\n    time.sleep(1)")

    def test_socket_flagged_in_sim(self):
        assert "SIM105" in codes("import socket\ns = socket.socket()")

    def test_experiments_zone_may_open_files(self):
        # repro.experiments is outside the blocking zone (report writing is
        # its job).
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
        # The DESIGN §7a.1 injection: GiB where the calibration means GB.
        assert "SIM106" in codes("class C:\n    upi_bandwidth: float = 30.0 * 2**30")

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


class TestSIM109StrayHostClock:
    SNIPPET = "import time\ndef f():\n    return time.perf_counter()"

    def test_analysis_zone_flagged(self):
        # The analysis tooling must not read the host clock.
        assert "SIM109" in codes(
            self.SNIPPET,
            module="repro.analysis.fixture",
            path="src/repro/analysis/fixture.py",
        )
        # The DESIGN §7a.1 injection: a timestamp in every validator finding.
        assert "SIM109" in codes(
            """
            import time

            def _finding(message):
                return f"{message} (checked at {time.time():.0f})"
            """,
            module="repro.analysis.validate",
            path="src/repro/analysis/validate.py",
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
        # The DESIGN §7a.1 injection: a cell's configs run on threads.
        assert "SIM110" in codes(
            "from concurrent.futures import ThreadPoolExecutor",
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
        # The DESIGN §7a.1 injection: a dict per _solve_classes iteration.
        assert "SIM111" in codes(
            """
            def _solve_classes(flows, memo=None):
                # simlint: hotpath
                for _ in range(DUTY_ITERATIONS):
                    scratch = dict()
                    scratch.clear()
            """
        )

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

class TestRegistryAndFiltering:
    def test_every_sim_rule_has_a_registry_entry(self):
        for code in (
            "SIM100",
            "SIM103",
            "SIM105",
            "SIM106",
            "SIM109",
            "SIM110",
            "SIM111",
        ):
            rule = get_rule(code)
            assert rule.code == code
            assert rule.severity is Severity.ERROR

    def test_rule_codes_unique_and_sorted(self):
        listed = [r.code for r in all_rules()]
        assert listed == sorted(set(listed))
