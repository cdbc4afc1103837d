"""The grid's simulated-configuration rule, pinned against direct runs.

``GridBackend.simulated_config`` clears ``l0_data`` for a kernel with
no lookup tables and ``operand_revitalize`` for a kernel with no scalar
constants.  A job simulates configurations that the rule maps to one
machine only once (``JobConstants.simulate``), so the rule must be
exact: the simulated configuration's result document, under the
requested name, equals a direct simulation of the requested one, and a
configuration that fails fails with the same error.
"""

import dataclasses

import pytest

from repro.backends import get
from repro.kernels import all_specs, registry
from repro.machine import MachineConfig, MachineParams
from repro.machine.config import TABLE5_CONFIGS, all_configs
from repro.machine.fastcore import using_core
from repro.perf.cache import run_result_to_dict

#: The grid variants the rule is checked under: the paper's substrate,
#: a smaller grid, and one that moves the latencies the two mechanisms
#: hide (the L0 data store, register-file reads, operand hops).
PARAMS = (
    MachineParams(),
    MachineParams(rows=4, cols=4),
    MachineParams(l0_data_latency=3, regfile_read_ports=2, hop_cycles=1.0),
)

#: Kernels with lookup tables: the rule never clears their L0 data store.
TABLE_KERNELS = ("blowfish", "rijndael", "vertex-skinning",
                 "anisotropic-filter")


def outcome(kernel, records, config, params, core):
    """The result document of one grid run, or the error it raised."""
    try:
        with using_core(core):
            result = get("grid").run(kernel, records, config, params)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return run_result_to_dict(result)


@pytest.mark.parametrize("name", sorted(registry()))
def test_simulated_config_gives_the_direct_result(name):
    s = registry()[name]
    kernel = s.kernel()
    records = s.workload(8, 3)
    grid = get("grid")
    for config in all_configs():
        simulated = grid.simulated_config(kernel, config)
        if simulated == config:
            continue
        assert simulated.name == config.name
        for core in ("array", "object"):
            for params in PARAMS:
                assert (outcome(kernel, records, simulated, params, core)
                        == outcome(kernel, records, config, params, core)), (
                    config, core, params)


@pytest.mark.parametrize("name", sorted(registry()))
def test_rule_clears_exactly_the_unused_mechanisms(name):
    kernel = registry()[name].kernel()
    grid = get("grid")
    for config in all_configs():
        simulated = grid.simulated_config(kernel, config)
        assert simulated == dataclasses.replace(
            config,
            l0_data=config.l0_data and bool(kernel.tables),
            operand_revitalize=(config.operand_revitalize
                                and bool(kernel.scalar_constants())),
        )
        if simulated == config:
            assert simulated is config


@pytest.mark.parametrize("name", TABLE_KERNELS)
def test_table_kernels_keep_the_l0_data_store(name):
    kernel = registry()[name].kernel()
    grid = get("grid")
    assert kernel.tables
    for config in all_configs():
        assert grid.simulated_config(kernel, config).l0_data == config.l0_data


def test_paper_kernels_that_share_a_machine():
    """Figure 5's equal columns: S-O-D is S-O and M-D is M on the ten
    kernels without tables, and S-O is S on fft and lu."""
    grid = get("grid")
    same = {}
    for s in all_specs(performance_only=True):
        kernel = s.kernel()
        machines = {}
        for config in TABLE5_CONFIGS:
            machine = dataclasses.replace(
                grid.simulated_config(kernel, config), name="")
            machines.setdefault(machine, []).append(config.name)
        same[s.name] = sorted(names for names in machines.values()
                            if len(names) > 1)
    no_tables = [["M", "M-D"], ["S-O", "S-O-D"]]
    assert same == {
        "convert": no_tables, "dct": no_tables, "highpassfilter": no_tables,
        "fft": [["M", "M-D"], ["S", "S-O", "S-O-D"]],
        "lu": [["M", "M-D"], ["S", "S-O", "S-O-D"]],
        "md5": no_tables,
        "fragment-reflection": no_tables, "fragment-simple": no_tables,
        "vertex-reflection": no_tables, "vertex-simple": no_tables,
        "blowfish": [], "rijndael": [], "vertex-skinning": [],
    }


@pytest.mark.parametrize("name", ["simd", "vector", "superscalar",
                                  "stream"])
def test_other_backends_simulate_the_config_they_are_given(name):
    kernel = registry()["fft"].kernel()
    config = MachineConfig.S_O_D()
    assert get(name).simulated_config(kernel, config) is config
