import splinequad

PUBLIC_API = {
    "Family", "build_rule", "build_rule_by_degree", "family_for", "rule_id",
    "ScaledRule", "RuleInterval", "replicate_periodically",
    "check_exactness", "ExactnessReport", "compare_golden", "load_golden_tables",
    "CountMismatch", "DegenerateWeight", "PolishFailed",
}


def test_all_is_the_user_facing_api():
    # building blocks stay importable from their own modules only
    assert set(splinequad.__all__) == PUBLIC_API
    assert len(splinequad.__all__) == len(PUBLIC_API)
    for name in splinequad.__all__:
        assert getattr(splinequad, name) is not None, name
