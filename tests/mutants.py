"""The mutation table: deliberate faults in ``src/soficwreath`` and the tests
that must fail under each.

Each ``Mutant`` replaces the exact snippet ``old`` in ``file`` by ``new``.
``tests/run_mutants.py`` applies one mutant at a time to a copy of the tree
and runs its ``tests``; the mutant is killed when every one of them fails.
``tests/test_mutants.py`` (Tier-1) requires each ``old`` to occur exactly once
in its file, so a change that rewrites mutated code updates this table in the
same diff.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/soficwreath
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # the kernels
    Mutant(
        "compose-factor-swap",
        "perm.py",
        "    return Permutation._trusted(_gather(s, t))\n",
        "    return Permutation._trusted(_gather(t, s))\n",
        (
            "tests/test_perm.py::TestCompose::test_right_factor_first",
            "tests/test_sofic.py::TestMultiplicative::test_product_acts_right_factor_first",
            "tests/test_cli.py::TestVerify::test_symmetric_lamps_build_and_pass_the_oracle",
        ),
    ),
    Mutant(
        "agreement-count-self",
        "bigperm.py",
        "else agreement_count(p, q)",
        "else agreement_count(p, p)",
        (
            "tests/test_bigperm.py::TestAgainstReferenceKernels::test_fixed_case_against_expansion",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
            "tests/test_acceptance.py::test_criterion_2_oracle_equivalence",
        ),
    ),
    Mutant(
        "product-key-second-only",
        "bigperm.py",
        "            key = (id(p2), id(p1))\n",
        "            key = (id(p2), id(p2))\n",
        (
            "tests/test_bigperm.py::TestAgainstReferenceKernels::test_fixed_case_against_expansion",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
        ),
    ),
    Mutant(
        "compose-keeps-identity",
        "bigperm.py",
        "                p = products[key] = not p.is_identity() and p\n",
        "                p = products[key] = p\n",
        (
            "tests/test_bigperm.py::TestCanonicalForm::test_structural_equality_after_compose",
            "tests/test_bigperm.py::TestTrustedCompose::test_results_pass_the_checked_constructors",
            "tests/test_bigperm.py::TestAgainstReferenceKernels::test_fixed_case_against_expansion",
        ),
    ),
    Mutant(
        "gather-repeats-first-entry",
        "perm.py",
        "    return itemgetter(*t.image)(s.image) if len(s.image) > 1 else s.image\n",
        "    image = itemgetter(*t.image)(s.image)\n    return (image[0],) * 2 + image[2:] if len(s.image) > 1 else s.image\n",
        (
            "tests/test_perm.py::TestCompose::test_right_factor_first",
            "tests/test_perm.py::TestGatherKernels::test_compose_matches_pointwise",
            "tests/test_construct.py::TestGoodBlocks::test_matches_pointwise_oracle",
        ),
    ),
    # the fast paths for equal values
    Mutant(
        "oracle-always-reuses-rule",
        "verify.py",
        "        if (expand(w).image if ruv == approx.rule(w) else explicit_image(ruv, cap)) != composed:\n",
        "        if expand(w).image != composed:\n",
        (
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z2_wr_z3]",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
            "tests/test_verify.py::TestOracleCheck::test_matches_a_reference_that_expands_every_product",
        ),
    ),
    Mutant(
        "oracle-distance-numerator-only",
        "verify.py",
        "        return d.numerator * n != moved * d.denominator\n",
        "        return d.numerator * n != moved\n",
        (
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z2_wr_z3]",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
            "tests/test_verify.py::TestOracleCheck::test_tampered_margin_and_identity_are_reported",
        ),
    ),
    Mutant(
        "writer-heads-by-size",
        "jsonutil.py",
        "heads_of.get(keys := tuple(x))",
        "heads_of.get(keys := len(x))",
        (
            "tests/test_jsonutil.py::TestDumpIndented::test_dicts_of_one_size_keep_their_own_keys",
            "tests/test_jsonutil.py::TestDumpIndented::test_rejects_what_the_stdlib_would_convert[int_key_after_str_key]",
            "tests/test_cli.py::TestReport::test_golden_certificate_and_report",
        ),
    ),
    Mutant(
        "distance-equal-beta-only",
        "bigperm.py",
        "    if w_beta == v_beta and w.tau == v.tau:\n",
        "    if w_beta == v_beta:\n",
        (
            "tests/test_bigperm.py::TestDistance::test_equal_copy_is_at_distance_zero_and_one_change_is_not",
            "tests/test_bigperm.py::TestDistance::test_matches_explicit_hamming",
            "tests/test_bigperm.py::TestSharedEntries::test_pooled_kernels_match_references",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
        ),
    ),
    Mutant(
        "hamming-shortcut-degree-only",
        "perm.py",
        "    if s.image == t.image:\n",
        "    if s.degree == t.degree:\n",
        (
            "tests/test_perm.py::TestHamming::test_transposition_vs_identity",
            "tests/test_perm.py::TestGatherKernels::test_inexact_product_is_counted",
            "tests/test_sofic.py::TestStrictPassRule::test_defect_equal_to_eps_fails",
        ),
    ),
    # the pass rule: a value on the bound fails, at both levels of certificate
    Mutant(
        "pass-rule-defect-at-eps",
        "sofic.py",
        "        if not d < eps:\n",
        "        if d > eps:\n",
        (
            "tests/test_sofic.py::TestStrictPassRule::test_defect_equal_to_eps_fails",
            "tests/test_verify.py::TestVerifyConstruction::test_value_on_the_bound_fails[defect]",
            "tests/test_cli.py::TestReport::test_stored_pass_disagreeing_with_the_checks_is_certificate_failure[defects_at_eps]",
        ),
    ),
    Mutant(
        "pass-rule-margin-at-bound",
        "sofic.py",
        "        if not m > 1 - eps:\n",
        "        if m < 1 - eps:\n",
        (
            "tests/test_sofic.py::TestStrictPassRule::test_margin_equal_to_one_minus_eps_fails",
            "tests/test_verify.py::TestVerifyConstruction::test_value_on_the_bound_fails[margin]",
            "tests/test_cli.py::TestReport::test_stored_pass_disagreeing_with_the_checks_is_certificate_failure[margins_at_bound]",
        ),
    ),
    # the construction's proved bounds
    Mutant(
        "lamp-bound-drops-w",
        "verify.py",
        '            "lamp": b.block_tolerance + b.window_size * b.input_tolerance,\n',
        '            "lamp": b.block_tolerance + b.input_tolerance,\n',
        (
            "tests/test_verify.py::TestDetailedReports::test_bounds_are_the_budget_formulas",
            "tests/test_cli.py::TestReport::test_golden_certificate_and_report",
        ),
    ),
    # the construction
    Mutant(
        "anchor-not-inverse",
        "construct.py",
        "            writes.append((sigma_B.evaluate(x).inverse().image, p))\n",
        "            writes.append((sigma_B.evaluate(x).image, p))\n",
        (
            "tests/test_construct.py::TestLampAction::test_agrees_with_block_oracle_on_every_good_block",
            "tests/test_construct.py::TestEquivariance::test_lamplighter_equivariance",
            "tests/test_acceptance.py::test_criterion_1_exactness_end_to_end",
        ),
    ),
    Mutant(
        "good-ignores-compatible",
        "construct.py",
        "        good=frozenset(injective & compatible),\n",
        "        good=frozenset(injective),\n",
        (
            "tests/test_construct.py::TestGoodBlocks::test_matches_pointwise_oracle",
            "tests/test_construct.py::TestGoodBlocks::test_good_blocks_recheckable_pointwise",
            "tests/test_inexact_inputs.py::test_perturbed_base_passes_with_nonzero_pairs",
        ),
    ),
    Mutant(
        "lamps-on-every-block",
        "construct.py",
        " if i in good} if writes else {}",
        "} if writes else {}",
        (
            "tests/test_inexact_inputs.py::test_perturbed_base_passes_with_nonzero_pairs",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z2_wr_z3]",
            "tests/test_verify.py::TestOracleCheck::test_confirms_nonzero_defects[z3_wr_z2]",
        ),
    ),
    Mutant(
        "lamp-input-uncertified",
        "construct.py",
        '    require_sofic(sigma_A, windows.lamp_values, budget.input_tolerance, "lamp approximation")\n',
        "",
        (
            "tests/test_inexact_inputs.py::test_perturbed_lamps_build_only_when_certified_and_then_pass",
            "tests/test_verify.py::TestVerifyConstruction::test_free_quotient_uncertified_inputs_rejected",
        ),
    ),
    Mutant(
        "base-window-no-quotients",
        "construct.py",
        "    base_window = {base.mul(base.inv(h1), h2) for h1 in positions for h2 in positions}\n",
        "    base_window = positions | {base.inv(h) for h in positions}\n",
        (
            "tests/test_construct.py::TestDeriveWindows::test_window_invariants",
            "tests/test_construct.py::TestDeriveWindows::test_two_generator_lamplighter",
            "tests/test_bench_digests.py::test_workload_outputs_match_recorded_digests[wide-base]",
        ),
    ),
    # Equivalent, and so not in the table: "good-bound-unchecked", which makes
    # check_good_block_bound skip its AssertionError, survives every test.  The
    # assertion restates the good-block lemma, which the input certificate at
    # input_tolerance < block_tolerance / (4 w^2) already proves, so only a
    # fault in compute_good_blocks could make it fire.
    # rule(1) = id, checked once where build assembles the rule
    Mutant(
        "build-skips-identity-check",
        "construct.py",
        "    if approx.rule(approx.wreath.identity()) != approx.identity_value():\n",
        "    if False:\n",
        (
            "tests/test_construct.py::TestBuild::test_rejects_a_rule_of_identity_that_moves_points",
            "tests/test_cli.py::TestVerify::test_rule_of_identity_other_than_the_identity_is_exit_two",
        ),
    ),
    # the record classes
    Mutant(
        "record-eq-ignores-class",
        "_record.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not hasattr(other, \"__match_args__\"):\n",
        (
            "tests/test_record.py::test_equality_within_and_across_classes_is_the_twins",
            "tests/test_groups.py::TestConcreteGroups::test_groups_of_different_kinds_never_compare_equal",
        ),
    ),
    Mutant(
        "record-skips-post-init",
        "_record.py",
        "        if post_init:\n            self.__post_init__()\n",
        "",
        (
            "tests/test_record.py::test_post_init_is_looked_up_at_each_call",
            "tests/test_perm.py::TestValidationAndJson::test_rejects_non_bijection",
            "tests/test_groups.py::TestConcreteGroups::test_built_directly_the_class_checks_its_argument[cyclic0]",
        ),
    ),
    Mutant(
        "record-assignable",
        "_record.py",
        '        raise FrozenError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        (
            "tests/test_record.py::test_assigning_or_deleting_any_attribute_raises_as_the_twin",
            "tests/test_perm.py::TestValidationAndJson::test_image_cannot_be_assigned_or_deleted",
        ),
    ),
    # the config reader and the artifact writer
    Mutant(
        "digit-run-unchecked",
        "jsonutil.py",
        '        if limit and max(map(len, re.findall(r"\\d+", value.replace("_", ""))), default=0) > limit:\n',
        "        if False:\n",
        (
            "tests/test_jsonutil.py::TestParseFraction::test_a_run_over_the_digit_limit_is_refused[fraction_part]",
            "tests/test_jsonutil.py::TestParseFraction::test_a_run_over_the_digit_limit_is_refused[exponent]",
            "tests/test_cli.py::TestBuild::test_long_fraction_part_is_usage_error_naming_the_value",
        ),
    ),
    Mutant(
        "exponent-unchecked",
        "jsonutil.py",
        "        if exponent and int(exponent[1]) > limit > 0:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::TestBuild::test_exponent_over_the_digit_limit_is_usage_error[eps-1e-5000]",
            "tests/test_cli.py::TestBuild::test_exponent_over_the_digit_limit_is_usage_error[rate-1E+4_301]",
        ),
    ),
    Mutant(
        "build-leaves-partial",
        "cli.py",
        "        os.remove(partial)\n",
        "        pass\n",
        ("tests/test_cli.py::TestBuild::test_artifact_that_cannot_be_written_leaves_no_file",),
    ),
    # the certificate reader
    Mutant(
        "reader-skips-re-encoding",
        "verify.py",
        '        if key != "pass" and (key not in data or key not in encoded or not same_json(data[key], encoded[key])):\n',
        "        if False:\n",
        (
            "tests/test_cli.py::TestReport::test_malformed_verdict_eps_or_pairs_is_usage_error[text-pairs_out_of_order]",
            "tests/test_cli.py::TestReport::test_malformed_verdict_eps_or_pairs_is_usage_error[json-details_element_other]",
            "tests/test_cli.py::TestCertificateTamperCorpus::test_every_single_field_edit_is_rejected_or_renders_the_same",
        ),
    ),
    Mutant(
        "reader-skips-pass-check",
        "verify.py",
        '    if data["pass"] != certificate.passed:\n',
        "    if False:\n",
        (
            "tests/test_cli.py::TestReport::test_stored_pass_disagreeing_with_the_checks_is_certificate_failure[defects_one]",
            "tests/test_cli.py::TestReport::test_stored_pass_disagreeing_with_the_checks_is_certificate_failure[pass_false]",
        ),
    ),
)
