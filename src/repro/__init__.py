"""repro: reproduction of 'Architectural Issues in Java Runtime Systems'
(HPCA 2000) — a simulated JVM with interpreter and JIT execution modes,
trace-driven cache / branch-prediction / ILP studies, and synchronization
designs, evaluated on SpecJVM98-like synthetic workloads.

Quick start::

    from repro.analysis import run_vm
    result = run_vm("compress", "s1", "jit")
    print(result.cycles, result.stdout)

Reproduce a paper figure::

    from repro.experiments import get_experiment
    print(get_experiment("fig1")(scale="s1").render())
"""

__version__ = "1.0.0"
