"""Table I — the General Motors automotive case study.

Paper: 20 control applications (camera/radar/lidar sensors and ECUs for
perception, tracking, active safety, autonomous control) on the 8-switch
Fig. 1 topology; 106 messages per 200 ms hyper-period; 10 Mbit/s links
(ld = 1.2 ms), sd = 5 us; 3 candidate routes, 5 stages.

Claims reproduced:
* stability-aware synthesis finds a schedule where **all** applications
  meet the worst-case stability condition (paper: 20/20, 112 s);
* deadline-only synthesis (the state of the art) satisfies every deadline
  but leaves a subset of applications **unstable** (paper: only 14/20
  stable, with 3 of the 5 published rows unstable).

Claim 2 is checked on the problem, not on the one schedule the search
happens to return: per app, is "unstable while every deadline holds"
satisfiable?  The five published rows match the paper exactly -- gm0,
gm1 and gm3 can be unstable, gm2 and gm4 cannot (alpha = 1.07 and
beta = 80.71 ms, while a 50 ms period caps L + 1.07 J at 53.5 ms).  At
20 apps, 11 apps admit an unstable deadline-feasible schedule; the
paper's 6 are the ones its solver's schedule happened to leave unstable.
"""

from repro.eval import run_table1


def test_table1_automotive(benchmark, is_paper_scale):
    n_apps = 20 if is_paper_scale else 8
    result = benchmark.pedantic(
        run_table1, kwargs=dict(n_apps=n_apps, routes=3, stages=5),
        rounds=1, iterations=1,
    )
    print()
    print(result.render())
    assert result.stability_status == "sat"
    # Claim 1: stability-aware keeps every application stable.
    assert result.stability_stable_count == result.n_apps
    # Claim 2: deadlines alone can leave applications unstable -- the
    # published rows, each "can" with a witness schedule (run_table1
    # certifies them), each "cannot" an unsat.
    assert result.deadline_status == "sat"
    assert {app: result.unstable_verdicts[app]
            for app in ("gm0", "gm1", "gm2", "gm3", "gm4")} == {
        "gm0": "sat", "gm1": "sat", "gm2": "unsat", "gm3": "sat",
        "gm4": "unsat"}
    assert set(result.unstable_witnesses) == set(result.can_be_unstable)
    if is_paper_scale:
        # 11 of the 20 apps can be unstable while every deadline holds.
        assert set(result.can_be_unstable) == {
            "gm0", "gm1", "gm3", *(f"gm{i}" for i in range(5, 13))}


def test_table1_message_count():
    """The full-scale case study carries exactly the paper's 106 messages."""
    from repro.eval import gm_case_study

    problem = gm_case_study(n_apps=20)
    assert problem.num_messages == 106
    assert float(problem.hyperperiod) == 0.2
