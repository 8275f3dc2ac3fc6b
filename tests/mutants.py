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
        "    return Permutation._trusted(gather(s.image, t.image))\n",
        "    return Permutation._trusted(gather(t.image, s.image))\n",
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
        "compose-disjoint-keeps-second",
        "bigperm.py",
        "tau[b] = two if one is None else one | two\n",
        "tau[b] = two\n",
        (
            "tests/test_bigperm.py::TestCompose::test_compose_commutes_with_expansion",
            "tests/test_bigperm.py::TestComposeBlockCases::test_both_operands_on_disjoint_coordinates",
            "tests/test_bigperm.py::TestTrustedCompose::test_results_pass_the_checked_constructors",
        ),
    ),
    Mutant(
        "inverse-fresh-points",
        "perm.py",
        "    for i, x in zip(points(len(image)), image):\n",
        "    for i, x in enumerate(image):\n",
        ("tests/test_perm.py::TestSharedPoints::test_every_constructor_shares_points",),
    ),
    Mutant(
        "bijection-check-no-lower-bound",
        "perm.py",
        " or min(image) < 0:",
        ":",
        (
            "tests/test_perm.py::TestValidationAndJson::test_bijection_check_matches_seen_loop",
            "tests/test_perm.py::TestSharedPoints::test_every_constructor_shares_points",
        ),
    ),
    Mutant(
        "gather-repeats-first-entry",
        "perm.py",
        "    return itemgetter(*indices)(image) if len(indices) > 1 else (image[indices[0]],)\n",
        "    picks = itemgetter(*indices)(image)\n    return (picks[0],) * 2 + picks[2:] if len(indices) > 1 else (image[indices[0]],)\n",
        (
            "tests/test_perm.py::TestCompose::test_right_factor_first",
            "tests/test_perm.py::TestGatherKernels::test_compose_matches_pointwise",
            "tests/test_construct.py::TestGoodBlocks::test_matches_pointwise_oracle",
        ),
    ),
    Mutant(
        "invert-swaps-point-and-image",
        "perm.py",
        "        inverse[x] = i\n",
        "        inverse[i] = x\n",
        (
            "tests/test_perm.py::TestGatherKernels::test_gather_and_invert_match_the_references",
            "tests/test_perm.py::TestInverse::test_kept_inverse_equals_a_fresh_one",
            "tests/test_groups.py::test_group_axioms[sym3]",
        ),
    ),
    Mutant(
        "symmetric-mul-factor-swap",
        "groups.py",
        "    mul = staticmethod(gather)\n",
        "    mul = staticmethod(lambda a, b: gather(b, a))\n",
        (
            "tests/test_groups.py::TestConcreteGroups::test_symmetric_composes_and_inverts_as_permutations[3]",
            "tests/test_groups.py::TestConcreteGroups::test_symmetric_composes_and_inverts_as_permutations[4]",
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
        "oracle-skips-hypotheses",
        "verify.py",
        "        if bullet.defect != d or bullet.witness != witness:\n",
        "        if False:\n",
        (
            "tests/test_verify.py::TestOracleCheck::test_tampered_bullet_is_reported[lamp_mult-defect]",
            "tests/test_verify.py::TestOracleCheck::test_tampered_bullet_is_reported[intertwine-witness]",
            "tests/test_verify.py::TestOracleCheck::test_tampered_margin_and_identity_are_reported",
            "tests/test_verify.py::TestOracleCheck::test_distances_are_read_from_the_given_certificate",
        ),
    ),
    Mutant(
        "oracle-bullet-defect-only",
        "verify.py",
        "        if bullet.defect != d or bullet.witness != witness:\n",
        "        if bullet.defect != d:\n",
        tuple(
            f"tests/test_verify.py::TestOracleCheck::test_tampered_bullet_is_reported[{name}-witness]"
            for name in ("lamp_mult", "base_mult", "split", "intertwine")
        ),
    ),
    Mutant(
        "oracle-bullets-on-factorized-values",
        "verify.py",
        "splitting_hypotheses(expand, wreath, approx.windows)",
        "splitting_hypotheses(approx.rule, wreath, approx.windows)",
        ("tests/test_verify.py::TestOracleCheck::test_wrong_composition_is_reported",),
    ),
    Mutant(
        "oracle-skips-base-margin",
        "verify.py",
        "        if e.base_margin is not None and differs(e.base_margin, moved := n - expand(base_only).fixed_points()):\n",
        "        if False:\n",
        ("tests/test_verify.py::TestOracleCheck::test_tampered_base_margin_is_reported",),
    ),
    # the lamp_mult bullet from sigma_A's agreement counts, against composition
    Mutant(
        "lamp-identity-no-good-scale",
        "verify.py",
        "            yield Fraction(good * (top - agree), b_size * top), (f, g)\n",
        "            yield Fraction(top - agree, top), (f, g)\n",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]",),
    ),
    Mutant(
        "lamp-identity-factor-swap",
        "verify.py",
        "agreement_count(sigma_A.evaluate(a) * sigma_A.evaluate(b), ",
        "agreement_count(sigma_A.evaluate(b) * sigma_A.evaluate(a), ",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    Mutant(
        "lamp-identity-union-denominator",
        "verify.py",
        "a_size ** len(shared)\n",
        "a_size ** len(at_f.keys() | at_g.keys())\n",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    # the other three bullets in closed form, against composition
    Mutant(
        "intertwine-no-factor-two",
        "verify.py",
        "Fraction(2 * leaving[h] * moved, approx.b_size * top)",
        "Fraction(leaving[h] * moved, approx.b_size * top)",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    Mutant(
        "intertwine-counts-injective-not-good",
        "verify.py",
        "approx.sigma_B, approx.block.good\n",
        "approx.sigma_B, approx.block.injective\n",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    Mutant(
        "intertwine-lamp-term-without-power",
        "verify.py",
        "            top = approx.a_size ** len(f.entries)\n",
        "            top = approx.a_size\n",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]",),
    ),
    Mutant(
        "split-witness-not-first",
        "verify.py",
        "zip(repeat(Fraction(0)), product(lamp_els, mover_els))",
        "zip(repeat(Fraction(0)), reversed([*product(lamp_els, mover_els)]))",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    Mutant(
        "base-mult-on-positions",
        "verify.py",
        "pair_defects(sigma_B.evaluate, approx.wreath.base.mul, mover_els)",
        "pair_defects(sigma_B.evaluate, approx.wreath.base.mul, windows.positions)",
        ("tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[all_good]", "tests/test_closed_forms.py::test_closed_forms_are_the_composed_walks[lowest_good_block_out]"),
    ),
    Mutant(
        "hypotheses-ignore-records",
        "verify.py",
        "    if records is not None:\n",
        "    if False:\n",
        ("tests/test_closed_forms.py::test_verify_composes_only_the_certificate_and_conclusion_pairs",),
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
    # the witness rule: the first worst pair on a tie
    Mutant(
        "worst-last-on-tie",
        "sofic.py",
        "        if record[0] and record[0] > best[0]:\n",
        "        if record[0] and record[0] >= best[0]:\n",
        ("tests/test_sofic.py::TestWitnessTies::test_is_multiplicative_names_first_worst_pair",),
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
    # the verdicts of the detailed report: a bullet fails on its threshold,
    # a lamp-only fixed fraction holds on its bound
    Mutant(
        "bullet-passes-at-threshold",
        "verify.py",
        "        return self.defect < self.threshold\n",
        "        return self.defect <= self.threshold\n",
        ("tests/test_verify.py::TestVerdictBoundaries::test_defect_equal_to_the_threshold_fails",),
    ),
    Mutant(
        "fixed-fraction-fails-at-bound",
        "verify.py",
        "else self.fixed_fraction <= self.bound\n",
        "else self.fixed_fraction < self.bound\n",
        ("tests/test_verify.py::TestVerdictBoundaries::test_fixed_fraction_equal_to_the_bound_holds",),
    ),
    # the oracle cap: a carrier of exactly cap points expands
    Mutant(
        "expansion-refuses-cap",
        "bigperm.py",
        "    if total > cap:\n",
        "    if total >= cap:\n",
        (
            "tests/test_bigperm.py::TestExpansion::test_carrier_of_exactly_cap_points_expands",
            "tests/test_cli.py::TestVerify::test_oracle_runs_on_a_carrier_of_exactly_its_cap",
        ),
    ),
    Mutant(
        "oracle-refuses-cap",
        "cli.py",
        "        if approx.carrier_size() > cap:\n",
        "        if approx.carrier_size() >= cap:\n",
        ("tests/test_cli.py::TestVerify::test_oracle_runs_on_a_carrier_of_exactly_its_cap",),
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
        "                writes.append((sigma_B.evaluate(x).inverse().image, p))\n",
        "                writes.append((sigma_B.evaluate(x).image, p))\n",
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
        "lamp-action-writes-identity",
        "construct.py",
        "            if not (p := sigma_A.evaluate(g)).is_identity():\n",
        "            if (p := sigma_A.evaluate(g)):\n",
        (
            "tests/test_construct.py::TestTrustedLampAction::test_values_pass_the_checked_constructor",
            "tests/test_construct.py::TestLampAction::test_lamp_value_acting_as_the_identity_writes_nothing",
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
            "tests/test_construct.py::TestBuild::test_base_not_free_at_a_quotient_of_two_positions_is_rejected",
            "tests/test_bench_digests.py::test_workload_outputs_match_recorded_digests[wide-base]",
        ),
    ),
    Mutant(
        "rule-caches-every-value",
        "construct.py",
        "            if u in self._kept:\n",
        "            if True:\n",
        ("tests/test_construct.py::TestRuleCache::test_verify_keeps_only_the_values_of_the_windows",),
    ),
    # The assertion restates the good-block lemma, which the input certificate
    # at input_tolerance < block_tolerance / (4 w^2) already proves, so only a
    # fault in compute_good_blocks makes it fire: the test plants one.
    Mutant(
        "good-bound-unchecked",
        "construct.py",
        "    if len(block.good) < (1 - budget.block_tolerance) * sigma_B.carrier_size:\n",
        "    if False:\n",
        ("tests/test_construct.py::TestGoodBlocks::test_too_few_good_blocks_after_certified_inputs_is_a_library_bug",),
    ),
    # rule(1) = id, checked once where build assembles the rule
    Mutant(
        "build-skips-identity-check",
        "construct.py",
        "    if not approx.rule(approx.wreath.identity()).is_identity():\n",
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
    Mutant(
        "record-ignores-unknown-keyword",
        "_record.py",
        "            if len(args) > count or kwargs.keys() != set(rest):\n",
        "            if len(args) > count:\n",
        ("tests/test_record.py::test_bad_constructor_calls_raise_the_twins_type_error",),
    ),
    # the input guards
    Mutant(
        "budget-input-tolerance-unchecked",
        "construct.py",
        "        if not self.input_tolerance > 0:",
        "        if False:",
        (
            "tests/test_construct.py::TestBudget::test_rejects_a_nonpositive_input_tolerance[zero]",
            "tests/test_construct.py::TestBudget::test_rejects_a_nonpositive_input_tolerance[negative]",
        ),
    ),
    Mutant(
        "budget-window-size-unchecked",
        "construct.py",
        "    if window_size < 1:\n",
        "    if False:\n",
        ("tests/test_construct.py::TestBudget::test_rejects_an_empty_positions_window",),
    ),
    Mutant(
        "coord-action-lamp-size-unchecked",
        "bigperm.py",
        "        if self.a_size < 1:",
        "        if False:",
        ("tests/test_bigperm.py::TestCanonicalForm::test_rejects_an_empty_carrier",),
    ),
    Mutant(
        "symmetric-refuses-one-point",
        "groups.py",
        "        if self.k < 1:\n",
        "        if self.k <= 1:\n",
        ("tests/test_groups.py::TestConcreteGroups::test_symmetric_on_one_point_is_the_trivial_group",),
    ),
    Mutant(
        "group-descriptor-shape-unchecked",
        "groups.py",
        '    if not isinstance(desc, dict) or "kind" not in desc:\n        raise ValueError(f"bad group descriptor',
        '    if False:\n        raise ValueError(f"bad group descriptor',
        (
            "tests/test_cli.py::TestUsageMessages::test_group_descriptor_other_than_an_object_with_a_kind[list]",
            "tests/test_cli.py::TestUsageMessages::test_group_descriptor_other_than_an_object_with_a_kind[string]",
            "tests/test_cli.py::TestUsageMessages::test_group_descriptor_other_than_an_object_with_a_kind[no_kind]",
        ),
    ),
    Mutant(
        "cyclic-quotient-size-unchecked",
        "sofic.py",
        "    if n < 1:\n",
        "    if False:\n",
        (
            "tests/test_sofic.py::TestGenerators::test_cyclic_quotient_on_no_points_is_refused[0]",
            "tests/test_sofic.py::TestGenerators::test_cyclic_quotient_on_no_points_is_refused[-2]",
        ),
    ),
    Mutant(
        "image-degrees-unchecked",
        "sofic.py",
        "        if p.degree != degree:\n",
        "        if False:\n",
        ("tests/test_sofic.py::TestGenerators::test_quotient_by_images_of_unequal_degrees_is_refused",),
    ),
    Mutant(
        "transposition-unchecked",
        "perm.py",
        "    if not (0 <= i < n and 0 <= j < n and i != j):\n",
        "    if False:\n",
        ("tests/test_perm.py::TestValidationAndJson::test_transposition_refuses_points_outside_the_carrier_or_equal",),
    ),
    Mutant(
        "image-count-unchecked",
        "sofic.py",
        "    if len(images) != group.rank:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestBuild::test_free_quotient_with_fewer_images_than_the_rank_is_usage_error",),
    ),
    Mutant(
        "perturb-rate-unchecked",
        "sofic.py",
        "    if not 0 <= rate <= 1:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::TestBuild::test_perturb_rate_outside_zero_one_is_usage_error[above_one]",
            "tests/test_cli.py::TestBuild::test_perturb_rate_outside_zero_one_is_usage_error[below_zero]",
        ),
    ),
    Mutant(
        "perturb-skips-two-points",
        "sofic.py",
        "s.carrier_size >= 2 and",
        "s.carrier_size > 2 and",
        ("tests/test_sofic.py::TestGenerators::test_perturb_at_rate_one_moves_a_two_point_carrier",),
    ),
    Mutant(
        "free-quotient-degree-any-int",
        "cli.py",
        'is_positive_int, "degree"',
        'is_int, "degree"',
        (
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_be_positive[0-drawn]",
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_be_positive[0-listed]",
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_be_positive[-2-drawn]",
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_be_positive[-2-listed]",
        ),
    ),
    Mutant(
        "free-quotient-degree-unmatched",
        "cli.py",
        "            if wrong := [len(img) for img in images if len(img) != degree]:\n",
        "            if wrong := []:\n",
        (
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_match_the_listed_images[only]",
            "tests/test_cli.py::TestUsageMessages::test_free_quotient_degree_must_match_the_listed_images[second]",
        ),
    ),
    Mutant(
        "fraction-refuses-int",
        "jsonutil.py",
        "    if isinstance(value, int):\n",
        "    if False:\n",
        ("tests/test_jsonutil.py::TestParseFraction::test_an_int_is_read_as_itself",),
    ),
    Mutant(
        "fraction-reads-bool",
        "jsonutil.py",
        "    if isinstance(value, bool):\n",
        "    if False:\n",
        (
            "tests/test_jsonutil.py::TestParseFraction::test_a_boolean_is_refused[True]",
            "tests/test_jsonutil.py::TestParseFraction::test_a_boolean_is_refused[False]",
            "tests/test_cli.py::TestUsageMessages::test_boolean_eps_is_not_read_as_one",
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
        "budget-digits-unchecked",
        "construct.py",
        "        if (limit := sys.get_int_max_str_digits()) and big",
        "        if (limit := 0) and big",
        (
            "tests/test_construct.py::TestBudget::test_tolerances_have_no_more_digits_than_an_int_may_print",
            "tests/test_cli.py::TestBuild::test_eps_whose_tolerances_cannot_be_printed_fails_before_any_certificate",
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
