"""The serve daemon's wire vocabulary: payload parsing and validation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import CellSpec, PolicySpec, ladder_specs
from repro.layout import ORGANIZATIONS
from repro.policy import POLICIES
from repro.service import (
    ProtocolError,
    cell_label,
    parse_cell,
    parse_job_payload,
    parse_policy,
    spec_to_payload,
)
from repro.traces import workload_names


class TestParsePolicy:
    def test_bare_string(self):
        assert parse_policy("afraid") == PolicySpec("afraid")
        assert parse_policy("raid5") == PolicySpec("raid5")

    def test_mapping_with_target(self):
        spec = parse_policy({"kind": "mttdl", "mttdl_target": 1e7})
        assert spec == PolicySpec("mttdl", mttdl_target=1e7)

    def test_target_coerced_from_string(self):
        assert parse_policy({"kind": "mttdl", "mttdl_target": "1e6"}).mttdl_target == 1e6

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown policy keys"):
            parse_policy({"kind": "afraid", "bogus": 1})

    def test_kind_required(self):
        with pytest.raises(ProtocolError, match='"kind"'):
            parse_policy({"mttdl_target": 1e7})

    def test_invalid_kind_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_policy("raid99")

    def test_mttdl_without_target_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_policy("mttdl")

    def test_non_mapping_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_policy(["afraid"])


class TestParseCell:
    def test_minimal(self):
        spec = parse_cell({"workload": "hplajw", "policy": "afraid"})
        assert spec.workload == "hplajw"
        assert spec.policy == PolicySpec("afraid")

    def test_defaults_merge_and_cell_overrides_win(self):
        defaults = {"duration_s": 30.0, "seed": 7, "policy": "afraid"}
        spec = parse_cell({"workload": "ATT", "seed": 9}, defaults)
        assert (spec.duration_s, spec.seed) == (30.0, 9)

    def test_field_coercion(self):
        spec = parse_cell(
            {"workload": "hplajw", "policy": "afraid", "duration_s": "5", "ndisks": 7.0}
        )
        assert spec.duration_s == 5.0
        assert spec.ndisks == 7

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown cell keys"):
            parse_cell({"workload": "hplajw", "policy": "afraid", "colour": "red"})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_cell({"workload": "nosuch", "policy": "afraid"})

    def test_workload_and_policy_required(self):
        with pytest.raises(ProtocolError, match='"workload"'):
            parse_cell({"policy": "afraid"})
        with pytest.raises(ProtocolError, match='"policy"'):
            parse_cell({"workload": "hplajw"})

    def test_uncoercible_field_rejected(self):
        with pytest.raises(ProtocolError, match="duration_s"):
            parse_cell({"workload": "hplajw", "policy": "afraid", "duration_s": "soon"})

    def test_round_trips_through_spec_to_payload(self):
        for spec in (
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), seed=9),
            CellSpec(workload="ATT", policy=PolicySpec("mttdl", mttdl_target=1e6)),
        ):
            assert parse_cell(spec_to_payload(spec)) == spec


class TestParseJobPayload:
    def test_explicit_cells_with_defaults(self):
        specs = parse_job_payload(
            {
                "cells": [
                    {"workload": "hplajw", "policy": "afraid"},
                    {"workload": "ATT", "policy": {"kind": "mttdl", "mttdl_target": 1e7}},
                ],
                "duration_s": 12.0,
                "seed": 5,
            }
        )
        assert [spec.workload for spec in specs] == ["hplajw", "ATT"]
        assert all(spec.duration_s == 12.0 and spec.seed == 5 for spec in specs)

    def test_ladder_shape_matches_ladder_specs(self):
        payload = {"workloads": ["hplajw", "ATT"], "targets": [1e7],
                   "duration_s": 8.0, "seed": 3}
        assert parse_job_payload(payload) == ladder_specs(
            ["hplajw", "ATT"], [1e7], duration_s=8.0, seed=3
        )

    def test_ladder_can_drop_baselines(self):
        specs = parse_job_payload(
            {"workloads": ["hplajw"], "include_raid5": False, "include_raid0": False}
        )
        assert [spec.policy.kind for spec in specs] == ["afraid"]

    def test_exactly_one_shape_required(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_payload({"duration_s": 5.0})
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_payload({"cells": [], "workloads": ["hplajw"]})

    def test_empty_cells_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_job_payload({"cells": []})

    def test_empty_workloads_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_job_payload({"workloads": []})

    def test_unknown_job_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job keys"):
            parse_job_payload({"workloads": ["hplajw"], "priority": "high"})

    def test_unknown_workload_in_ladder_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_job_payload({"workloads": ["nosuch"]})

    def test_bad_targets_rejected(self):
        with pytest.raises(ProtocolError, match="targets"):
            parse_job_payload({"workloads": ["hplajw"], "targets": "1e7"})
        with pytest.raises(ProtocolError, match="targets"):
            parse_job_payload({"workloads": ["hplajw"], "targets": ["soon"]})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_job_payload([{"workload": "hplajw"}])

    @pytest.mark.parametrize("duration", [0, -3, float("nan"), "NaN", "inf"])
    def test_unrunnable_duration_rejected(self, duration):
        cells = [{"workload": "hplajw", "policy": "afraid"}]
        for payload in (
            {"cells": cells, "duration_s": duration},
            {"cells": [{**cells[0], "duration_s": duration}]},
            {"workloads": ["hplajw"], "duration_s": duration},
        ):
            with pytest.raises(ProtocolError, match="duration_s"):
                parse_job_payload(payload)

    @pytest.mark.parametrize("ndisks", [1, 2])
    def test_disk_count_the_organization_refuses_rejected(self, ndisks):
        for payload in (
            {"cells": [{"workload": "hplajw", "policy": "afraid", "ndisks": ndisks}]},
            {"workloads": ["hplajw"], "ndisks": ndisks},
        ):
            with pytest.raises(ProtocolError, match="disks for RAID 5"):
                parse_job_payload(payload)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("stripe_unit_sectors", 0, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", -8, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", 10**9, "smaller than one stripe unit"),
            ("idle_threshold_s", -1, "idle_threshold_s"),
            ("idle_threshold_s", "NaN", "idle_threshold_s"),
            ("extra_settle_s", -5, "extra_settle_s"),
        ],
    )
    def test_cell_no_worker_can_run_rejected(self, field, value, message):
        cell = {"workload": "hplajw", "policy": "afraid"}
        for payload in (
            {"cells": [cell], field: value, "duration_s": 2},
            {"cells": [{**cell, field: value}], "duration_s": 2},
            {"workloads": ["hplajw"], field: value, "duration_s": 2},
        ):
            with pytest.raises(ProtocolError, match=message):
                parse_job_payload(payload)


class TestCellLabel:
    def test_matches_sweep_grid_key(self):
        spec = CellSpec(workload="hplajw", policy=PolicySpec("afraid"))
        assert cell_label(spec) == f"{spec.key[0]}/{spec.key[1]}"

    def test_mttdl_label_carries_target(self):
        spec = CellSpec(workload="ATT", policy=PolicySpec("mttdl", mttdl_target=1e7))
        assert cell_label(spec) == "ATT/MTTDL_1e+07"


#: Keys and words the payload fuzz draws from, so generated jobs reach the
#: cell and policy parsers rather than stopping at "unknown keys".
_KEYS = [
    "cells", "workloads", "targets", "include_raid5", "include_raid0", "kind",
    *(field.name for field in dataclasses.fields(CellSpec)),
    *(field.name for field in dataclasses.fields(PolicySpec)),
]
_WORDS = [*workload_names(), *POLICIES, "mttdl", *ORGANIZATIONS, "nan", "-inf", "1e7", "5"]

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(_WORDS)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=24,
)
_CELL = st.dictionaries(st.sampled_from(_KEYS), _SCALARS | _JSON, max_size=6)
_JOBS = st.one_of(
    _JSON,
    st.fixed_dictionaries({"cells": st.lists(_CELL, max_size=3)}, optional={"seed": _SCALARS}),
    st.fixed_dictionaries(
        {"workloads": st.lists(_SCALARS | _JSON, max_size=3)},
        optional={key: _JSON for key in ("targets", "include_raid5", "ndisks", "organization")},
    ),
)


def _mttdl(target) -> dict:
    return {"kind": "mttdl", "mttdl_target": target}


class TestPayloadFuzz:
    """Any JSON value is a job or a ProtocolError (a 400), never a crash."""

    @settings(max_examples=400, deadline=None)
    @given(_JOBS)
    def test_specs_or_protocol_error(self, payload):
        try:
            specs = parse_job_payload(payload)
        except ProtocolError:
            return
        assert specs and all(isinstance(spec, CellSpec) for spec in specs)
        for spec in specs:
            assert parse_cell(spec_to_payload(spec)) == spec

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"workloads": [["a"]]}, "unknown workload"),
            ({"workloads": [{}]}, "unknown workload"),
            ({"workloads": ["hplajw"], "include_raid5": "false"}, "include_raid5"),
            ({"workloads": ["hplajw"], "seed": 1.7}, "seed must be an integer, got 1.7"),
            ({"workloads": ["hplajw"], "seed": True}, "seed must be an integer, got True"),
            ({"workloads": ["hplajw"], "targets": [-1]}, "mttdl_target must be a finite"),
            (
                {"cells": [{"workload": "hplajw", "policy": _mttdl("nan")}]},
                r"mttdl_target must be a finite number > 0, got nan",
            ),
            (
                {"cells": [{"workload": "hplajw", "policy": _mttdl(-1)}]},
                r"mttdl_target must be a finite number > 0, got -1.0",
            ),
        ],
    )
    def test_parent_counterexamples(self, payload, message):
        """Payloads that raised ``TypeError`` or were silently misread before
        (``seed: 1.7`` ran as seed 1, ``"false"`` read as true, a NaN or
        negative MTTDL target reached the workers)."""
        with pytest.raises(ProtocolError, match=message):
            parse_job_payload(payload)
