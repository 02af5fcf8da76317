"""A machine's metrics: one flat dict over every component's counters."""


class TestMachineRegistration:
    def test_machine_metrics_cover_components(self, recorded_run):
        machine, result, _ = recorded_run
        snap = machine.metrics()
        # One namespace per component.
        for prefix in ("machine.", "frontend.", "ftq.", "mshr.", "bpu.",
                       "l1i.", "l1d.", "l2.", "l3.", "dram.",
                       "l1i.predictor."):
            assert any(name.startswith(prefix) for name in snap), prefix
        # The snapshot reads live state that matches the result counters.
        assert snap["frontend.fetch_stall_cycles"] == \
            result.frontend.fetch_stall_cycles
        assert snap["l1i.hits"] >= result.frontend.l1i_hits
        assert snap["machine.instructions_delivered"] > 0
        assert snap["ftq.capacity"] == 128
