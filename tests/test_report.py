from depnet.report import build_report


def test_run_settings_come_from_config(two_triangles):
    """build_report takes its settings only from the config it records."""
    config = {"runs": 3, "eb_runs": 1, "seed": 7, "xmin": 1,
              "package_depth": None}
    doc = build_report(two_triangles, config, b"")
    assert doc["config"] is config
    for algo in ("mo", "lp"):
        assert doc["algorithms"][algo]["runs"] == 3
        assert len(doc["algorithms"][algo]["q_values"]) == 3
    assert len(doc["algorithms"]["eb"]["q_values"]) == 1
