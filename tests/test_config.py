"""Config parsing: every shipped file loads, every malformed input is
rejected with line-numbered messages, and validation collects all problems
in one pass instead of stopping at the first."""

import os
import time

import pytest

from regretlab.config import (
    ConfigError,
    ExperimentSpec,
    parse_config,
)
from regretlab.learners import LearnerSpec

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def lines(*rows):
    """Join rows with newlines so row k sits on line k (1-indexed)."""
    return "\n".join(rows) + "\n"


def errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


MATRIX_GAME = ("[game]", "type = matrix", "matrix = 1,0; 0,1")  # lines 1-3
RUN_10 = ("[run]", "T = 10")


def with_learner(*learner_rows):
    """Minimal valid config around a [learner] body starting at line 5."""
    return lines(*MATRIX_GAME, "[learner]", *learner_rows, *RUN_10)


GOOD = with_learner("algorithm = hedge", "eta = 0.1")


# ---------------------------------------------------------------------------
# tokenizer: sections, keys, comments


class TestTokenizer:
    def test_minimal_config_parses(self):
        spec = parse_config(GOOD)
        assert isinstance(spec, ExperimentSpec)
        assert spec.learner == LearnerSpec("hedge", 0.1)
        assert spec.T == 10

    def test_comments_and_blank_lines_are_ignored(self):
        text = lines(
            "# top-level comment",
            "",
            "[game]  # trailing comment on a section",
            "type = matrix",
            "matrix = 1,0; 0,1  # trailing comment on a key",
            "",
            "[learner]",
            "algorithm = hedge",
            "eta = 0.1",
            "[run]",
            "T = 10",
        )
        spec = parse_config(text)
        assert spec.game["matrix"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_line_that_is_neither_key_nor_section(self):
        text = lines(*MATRIX_GAME, "just some words",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 4: expected 'key = value' or '[section]', got 'just some words'"
        ]

    def test_malformed_section_header_reads_as_garbage_line(self):
        text = lines("[bad name]", *MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        errs = errors_of(text)
        assert errs == [
            "line 1: expected 'key = value' or '[section]', got '[bad name]'"
        ]

    def test_key_outside_any_section(self):
        text = lines("T = 10", *MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 1: key 'T' appears outside any section"
        ]

    def test_empty_key(self):
        text = lines(*MATRIX_GAME, " = 5",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == ["line 4: empty key"]

    def test_duplicate_section_reports_and_merges(self):
        # the matrix key lands in the original [game] section, so the only
        # problem reported is the duplication itself
        text = lines(
            "[game]",                # 1
            "type = matrix",         # 2
            "[game]",                # 3
            "matrix = 1,0; 0,1",     # 4
            "[learner]",
            "algorithm = hedge",
            "eta = 0.1",
            *RUN_10,
        )
        assert errors_of(text) == ["line 3: duplicate section [game]"]

    def test_duplicate_key_in_section(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[run]",
                     "T = 10",      # 8
                     "T = 20")      # 9
        assert errors_of(text) == ["line 9: duplicate key 'T' in this section"]

    def test_unknown_section(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10,
                     "[widgets]",   # 9
                     "x = 1")
        assert errors_of(text) == ["line 9: unknown section [widgets]"]


# ---------------------------------------------------------------------------
# required sections and collect-everything behavior


class TestRequiredSections:
    def test_empty_file_lists_every_missing_section(self):
        assert errors_of("") == [
            "missing required section [game] (needs game.type)",
            "missing required section [learner] (needs learner.algorithm)",
            "missing required section [run] (needs run.T)",
        ]

    def test_comment_only_file_behaves_like_empty(self):
        assert errors_of("# nothing here\n\n# still nothing\n") == [
            "missing required section [game] (needs game.type)",
            "missing required section [learner] (needs learner.algorithm)",
            "missing required section [run] (needs run.T)",
        ]

    def test_game_only_still_reports_the_other_two(self):
        errs = errors_of(lines(*MATRIX_GAME))
        assert errs == [
            "missing required section [learner] (needs learner.algorithm)",
            "missing required section [run] (needs run.T)",
        ]

    def test_many_problems_reported_together(self):
        text = lines(
            "[game]",                 # 1
            "type = chess",           # 2: bad choice
            "flavor = mild",          # 3: unknown key
            "[learner]",              # 4
            "algorithm = sarsa",      # 5: bad choice
            "[run]",                  # 6
            "T = 0",                  # 7: below minimum
            "mode = profit",          # 8: bad choice
        )
        errs = errors_of(text)
        assert len(errs) == 5
        assert ("line 2: game.type must be one of auction, dense_csv, matrix, "
                "network, random; got 'chess'") in errs
        assert "line 3: unknown key game.flavor" in errs
        assert ("line 5: learner.algorithm must be one of bestresponse, "
                "first_order_hedge, hedge, oftrl, omd, optimistic_hedge; "
                "got 'sarsa'") in errs
        assert "line 7: run.T must be >= 1, got 0" in errs
        assert "line 8: run.mode must be one of cost, utility; got 'profit'" in errs

    def test_configerror_string_carries_all_lines(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("")
        text = str(excinfo.value)
        assert text.startswith("invalid config:\n")
        for problem in excinfo.value.errors:
            assert problem in text


# ---------------------------------------------------------------------------
# [game] validation


class TestNonFiniteNumbers:
    ROBUST = (*MATRIX_GAME, "[learner]", "algorithm = optimistic_hedge", "eta = 0.1",
              *RUN_10, "[robust]")  # [robust] body starts at line 10
    AUCTION = ("[game]", "type = auction", "bidders = 2", "items = 1")  # lines 1-4
    HEDGE = ("[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    @pytest.mark.parametrize("rows, key, line", [
        ((*AUCTION, "value = {}", "bids = 1..2", *HEDGE), "game.value", 5),
        ((*MATRIX_GAME, "lambda = {}", "mu = 0", *HEDGE), "game.lambda", 4),
        ((*MATRIX_GAME, "lambda = 1", "mu = {}", *HEDGE), "game.mu", 5),
        ((*MATRIX_GAME, "[learner]", "algorithm = hedge", "eta = {}", *RUN_10),
         "learner.eta", 6),
        ((*MATRIX_GAME, "[learner]", "algorithm = oftrl", "eta = 0.1",
          "predictor = geometric", "predictor_param = {}", *RUN_10),
         "learner.predictor_param", 8),
        ((*ROBUST, "eta_star = {}"), "robust.eta_star", 10),
    ], ids=["value", "lambda", "mu", "eta", "predictor_param", "eta_star"])
    def test_is_a_config_error_naming_the_line(self, rows, key, line, value):
        errs = errors_of(lines(*(row.format(value) for row in rows)))
        assert errs == [f"line {line}: {key} must be a finite number, got {value}"]


class TestGameSection:
    def test_missing_type(self):
        errs = errors_of(lines("[game]", "matrix = 1,0; 0,1",
                               "[learner]", "algorithm = hedge", "eta = 0.1",
                               *RUN_10))
        assert "line 1: [game] is missing required key game.type" in errs
        # the matrix key is only meaningful once the type says so
        assert "line 2: unknown key game.matrix" in errs

    def test_auction_parses(self):
        text = lines(
            "[game]", "type = auction", "bidders = 3", "items = 2",
            "value = 7.5", "bids = 1..4",
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        spec = parse_config(text)
        assert spec.game == {"type": "auction", "bidders": 3, "items": 2,
                             "value": 7.5, "bids": [1.0, 2.0, 3.0, 4.0],
                             "value_mask_seed": None}

    def test_auction_missing_keys_each_reported(self):
        text = lines("[game]", "type = auction",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        errs = errors_of(text)
        for key in ("bidders", "items", "value", "bids"):
            assert f"line 1: [game] is missing required key game.{key}" in errs
        assert len(errs) == 4

    def test_auction_bounds(self):
        text = lines(
            "[game]", "type = auction",
            "bidders = 0",               # 3
            "items = 1",
            "value = 0",                 # 5
            "bids = 1..4",
            "value_mask_seed = -3",      # 7
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        errs = errors_of(text)
        assert "line 3: game.bidders must be >= 1, got 0" in errs
        assert "line 5: game.value must be > 0.0, got 0.0" in errs
        assert "line 7: game.value_mask_seed must be >= 0, got -3" in errs
        assert len(errs) == 3

    def test_auction_item_values_above_the_cap(self):
        text = lines(
            "[game]", "type = auction", "bidders = 10000",
            "items = 10000",             # 4
            "value = 5", "bids = 1..2",
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 4: game.items: 10000 bidders and 10000 items make 100000000 item values, "
            "above the enumeration cap 10000000; refusing to allocate them"]

    def test_random_players_above_the_cap_are_refused_before_dims_are_broadcast(self):
        # one more player than the cap: a broadcast dims list would hold 10^7 entries
        text = lines(
            "[game]", "type = random",
            "players = 10000001",        # 3
            "dims = 2", "seed = 1",
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        start = time.perf_counter()
        assert errors_of(text) == [
            "line 3: game.players asks for 10000001 players, above the enumeration cap "
            "10000000; refusing to allocate them"]
        assert time.perf_counter() - start < 0.1

    def test_bids_comma_list(self):
        text = lines(
            "[game]", "type = auction", "bidders = 2", "items = 1",
            "value = 5", "bids = 0.5, 1.5, 2.5",
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert parse_config(text).game["bids"] == [0.5, 1.5, 2.5]

    def test_bids_empty_range(self):
        text = lines(
            "[game]", "type = auction", "bidders = 2", "items = 1",
            "value = 5",
            "bids = 5..3",               # 6
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == ["line 6: game.bids range '5..3' is empty"]

    def test_bids_not_numeric(self):
        text = lines(
            "[game]", "type = auction", "bidders = 2", "items = 1",
            "value = 5",
            "bids = 1,zebra",            # 6
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 6: game.bids must be 'lo..hi' or a comma list, got '1,zebra'"
        ]

    @pytest.mark.parametrize("bad", ["1,nan", "1,2,inf", "-inf,1"])
    def test_bids_must_be_finite(self, bad):
        text = lines(
            "[game]", "type = auction", "bidders = 2", "items = 1",
            "value = 5",
            f"bids = {bad}",             # 6
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [f"line 6: game.bids must be finite numbers, got {bad!r}"]

    @pytest.mark.parametrize("bad", ["0..3", "2,1", "1,1,2", "-1,2"])
    def test_bids_must_be_positive_increasing(self, bad):
        text = lines(
            "[game]", "type = auction", "bidders = 2", "items = 1",
            "value = 5",
            f"bids = {bad}",             # 6
            "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 6: game.bids must be positive and strictly increasing"
        ]

    def test_matrix_non_numeric_entry(self):
        text = lines("[game]", "type = matrix",
                     "matrix = 1,x; 0,1",       # 3
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 3: game.matrix has a non-numeric entry in '1,x'"
        ]

    def test_matrix_ragged_rows(self):
        text = lines("[game]", "type = matrix",
                     "matrix = 1,0; 1",          # 3
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 3: game.matrix rows must be non-empty and equal length"
        ]

    def test_matrix_entries_out_of_range(self):
        text = lines("[game]", "type = matrix",
                     "matrix = 2,0; 0,1",        # 3
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 3: game.matrix entries must lie in [0, 1]"
        ]

    def test_random_game_broadcasts_single_dim(self):
        text = lines("[game]", "type = random", "players = 3", "dims = 4",
                     "seed = 11",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        spec = parse_config(text)
        assert spec.game == {"type": "random", "players": 3,
                             "dims": [4, 4, 4], "seed": 11}

    def test_random_game_dims_count_mismatch(self):
        text = lines("[game]", "type = random", "players = 3", "dims = 2,2",
                     "seed = 1",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 1: game.dims lists 2 sizes for 3 players"
        ]

    def test_random_game_dims_below_one(self):
        text = lines("[game]", "type = random", "players = 2",
                     "dims = 2,0",               # 4
                     "seed = 1",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == ["line 4: game.dims entries must be >= 1"]

    def test_random_game_dims_not_integers(self):
        text = lines("[game]", "type = random", "players = 2",
                     "dims = 2,x",               # 4
                     "seed = 1",
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)
        assert errors_of(text) == [
            "line 4: game.dims must be a comma list of integers, got '2,x'"
        ]

    def test_dense_csv_has_unknown_player_count(self):
        text = lines("[game]", "type = dense_csv", "path = payoffs.csv",
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     # player indices can't be range-checked before the file
                     # is read, so the override is accepted at parse time
                     "[learner.7]", "algorithm = hedge", "eta = 0.2",
                     *RUN_10)
        spec = parse_config(text)
        assert spec.game == {"type": "dense_csv", "path": "payoffs.csv"}
        assert spec.overrides[7] == LearnerSpec("hedge", 0.2)


# ---------------------------------------------------------------------------
# smoothness claims inside [game]


class TestSmoothnessClaim:
    def base(self, *extra_game_rows):
        return lines("[game]", "type = matrix", "matrix = 1,0; 0,1",
                     *extra_game_rows,
                     "[learner]", "algorithm = hedge", "eta = 0.1", *RUN_10)

    def test_full_claim_parses(self):
        spec = parse_config(self.base("lambda = 1", "mu = 0.5", "s_star = 0,1"))
        assert spec.smoothness == {"lambda": 1.0, "mu": 0.5, "s_star": [0, 1]}

    def test_claim_without_s_star_parses(self):
        spec = parse_config(self.base("lambda = 2", "mu = 0"))
        assert spec.smoothness == {"lambda": 2.0, "mu": 0.0, "s_star": None}

    def test_no_claim_keys_means_no_claim(self):
        assert parse_config(self.base()).smoothness is None

    def test_lambda_alone_is_rejected(self):
        errs = errors_of(self.base("lambda = 1"))  # line 4
        assert errs == [
            "line 4: game.lambda and game.mu must be given together "
            "for a smoothness claim"
        ]

    def test_mu_alone_is_rejected(self):
        errs = errors_of(self.base("mu = 0.5"))  # line 4
        assert errs == [
            "line 4: game.lambda and game.mu must be given together "
            "for a smoothness claim"
        ]

    def test_s_star_alone_is_rejected(self):
        errs = errors_of(self.base("s_star = 0,0"))  # line 4
        assert errs == [
            "line 4: game.lambda and game.mu must be given together "
            "for a smoothness claim"
        ]

    def test_lambda_must_be_positive(self):
        errs = errors_of(self.base("lambda = 0", "mu = 0.5"))  # line 4
        assert errs == ["line 4: game.lambda must be > 0.0, got 0.0"]

    def test_mu_must_be_nonnegative(self):
        errs = errors_of(self.base("lambda = 1", "mu = -0.5"))  # line 5
        assert errs == ["line 5: game.mu must be >= 0.0, got -0.5"]

    def test_s_star_wrong_length(self):
        errs = errors_of(self.base("lambda = 1", "mu = 0.5",
                                   "s_star = 0,0,0"))  # line 6
        assert errs == ["line 6: game.s_star [0, 0, 0] is not a pure profile of a game with dims [2, 2]"]

    def test_s_star_index_out_of_range(self):
        errs = errors_of(self.base("lambda = 1", "mu = 0.5",
                                   "s_star = 0,5"))  # line 6
        assert errs == ["line 6: game.s_star [0, 5] is not a pure profile of a game with dims [2, 2]"]

    def test_s_star_negative_index(self):
        errs = errors_of(self.base("lambda = 1", "mu = 0.5",
                                   "s_star = 0,-1"))  # line 6
        assert errs == ["line 6: game.s_star indices must be >= 0"]

    def test_s_star_not_integers(self):
        errs = errors_of(self.base("lambda = 1", "mu = 0.5",
                                   "s_star = 0,b"))  # line 6
        assert errs == [
            "line 6: game.s_star must be a comma list of strategy indices, "
            "got '0,b'"
        ]


# ---------------------------------------------------------------------------
# [learner] / [baseline] families


class TestLearnerSection:
    def test_missing_algorithm(self):
        assert errors_of(with_learner("eta = 0.1")) == [
            "line 4: [learner] is missing required key learner.algorithm"
        ]

    def test_eta_required_for_step_size_families(self):
        for algo in ("hedge", "optimistic_hedge", "oftrl", "omd"):
            errs = errors_of(with_learner(f"algorithm = {algo}"))
            assert errs == [
                "line 4: [learner] is missing required key learner.eta"
            ], algo

    def test_negative_eta_is_a_single_error(self):
        assert errors_of(with_learner("algorithm = hedge", "eta = -1")) == [
            "line 6: learner.eta must be > 0.0, got -1.0"
        ]

    def test_eta_not_a_number(self):
        assert errors_of(with_learner("algorithm = hedge", "eta = fast")) == [
            "line 6: learner.eta must be a number, got 'fast'"
        ]

    def test_unknown_learner_key(self):
        errs = errors_of(with_learner("algorithm = hedge", "eta = 0.1",
                                      "momentum = 0.9"))  # line 7
        assert errs == ["line 7: unknown key learner.momentum"]

    def test_bestresponse_rejects_every_tuning_key(self):
        errs = errors_of(with_learner(
            "algorithm = bestresponse",
            "eta = 0.1",                 # 6
            "regularizer = entropy",     # 7
            "predictor = last",          # 8
            "predictor_param = 2",       # 9
        ))
        assert errs == [
            "line 6: learner.eta does not apply to algorithm 'bestresponse'",
            "line 7: learner.regularizer does not apply to algorithm "
            "'bestresponse'",
            "line 8: learner.predictor does not apply to algorithm "
            "'bestresponse'",
            "line 9: learner.predictor_param does not apply to algorithm "
            "'bestresponse'",
        ]

    def test_first_order_hedge_rejects_eta(self):
        errs = errors_of(with_learner("algorithm = first_order_hedge",
                                      "eta = 0.1"))  # line 6
        assert errs == [
            "line 6: learner.eta does not apply to algorithm "
            "'first_order_hedge'"
        ]

    def test_first_order_hedge_bare_parses(self):
        spec = parse_config(with_learner("algorithm = first_order_hedge"))
        assert spec.learner == LearnerSpec("first_order_hedge")

    def test_bestresponse_bare_parses(self):
        spec = parse_config(with_learner("algorithm = bestresponse"))
        assert spec.learner == LearnerSpec("bestresponse")

    @pytest.mark.parametrize("algo", ["hedge", "optimistic_hedge"])
    def test_hedge_shortcuts_reject_structural_keys(self, algo):
        errs = errors_of(with_learner(
            f"algorithm = {algo}",
            "eta = 0.1",
            "regularizer = euclidean",   # 7
            "predictor = window",        # 8
            "predictor_param = 2",       # 9
        ))
        assert errs == [
            f"line 7: learner.regularizer is fixed by algorithm '{algo}'",
            f"line 8: learner.predictor is fixed by algorithm '{algo}'",
            f"line 9: learner.predictor_param is fixed by algorithm '{algo}'",
        ]

    def test_oftrl_full_spec_parses(self):
        spec = parse_config(with_learner(
            "algorithm = oftrl", "eta = 0.2", "regularizer = euclidean",
            "predictor = last"))
        assert spec.learner == LearnerSpec("oftrl", 0.2, "euclidean", "last")

    def test_window_requires_param(self):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor = window"))  # line 7
        assert errs == [
            "line 7: learner.predictor_param (window size) is required "
            "for the window predictor"
        ]

    @pytest.mark.parametrize("bad,shown", [("2.5", "2.5"), ("0", "0.0")])
    def test_window_param_must_be_integer_at_least_one(self, bad, shown):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor = window",
                                      f"predictor_param = {bad}"))  # line 8
        assert errs == [
            f"line 8: learner.predictor_param must be a window size >= 1, "
            f"got {shown}"
        ]

    def test_window_param_becomes_an_int(self):
        spec = parse_config(with_learner("algorithm = oftrl", "eta = 0.1",
                                         "predictor = window",
                                         "predictor_param = 3"))
        assert spec.learner == LearnerSpec("oftrl", 0.1, "entropy", "window", 3)
        assert isinstance(spec.learner.predictor_param, int)

    def test_geometric_requires_param(self):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor = geometric"))  # line 7
        assert errs == [
            "line 7: learner.predictor_param (discount) is required "
            "for the geometric predictor"
        ]

    @pytest.mark.parametrize("bad", ["1.0", "-0.1", "2"])
    def test_geometric_param_must_be_a_discount(self, bad):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor = geometric",
                                      f"predictor_param = {bad}"))  # line 8
        assert errs == [
            f"line 8: learner.predictor_param must be a discount in [0, 1), "
            f"got {float(bad)}"
        ]

    def test_geometric_param_zero_parses(self):
        spec = parse_config(with_learner("algorithm = oftrl", "eta = 0.1",
                                         "predictor = geometric",
                                         "predictor_param = 0"))
        assert spec.learner == LearnerSpec("oftrl", 0.1, "entropy", "geometric", 0.0)

    def test_geometric_param_parses(self):
        spec = parse_config(with_learner("algorithm = oftrl", "eta = 0.1",
                                         "predictor = geometric",
                                         "predictor_param = 0.9"))
        assert spec.learner == LearnerSpec("oftrl", 0.1, "entropy",
                                           "geometric", 0.9)

    def test_a_bad_param_of_a_predictor_without_one(self):
        # the bad value is reported, and so is the key, which does not apply
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1", "predictor = last",
                                      "predictor_param = abc"))  # line 8
        assert errs == [
            "line 8: learner.predictor_param must be a number, got 'abc'",
            "line 8: learner.predictor_param only applies to window/geometric predictors",
        ]

    def test_param_without_matching_predictor(self):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor_param = 2"))  # line 7
        assert errs == [
            "line 7: learner.predictor_param only applies to window/geometric "
            "predictors"
        ]

    def test_regularizer_choices(self):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "regularizer = l1"))  # line 7
        assert errs == [
            "line 7: learner.regularizer must be one of entropy, euclidean; "
            "got 'l1'"
        ]

    def test_predictor_choices(self):
        errs = errors_of(with_learner("algorithm = oftrl", "eta = 0.1",
                                      "predictor = future"))  # line 7
        assert errs == [
            "line 7: learner.predictor must be one of geometric, last, none, "
            "window; got 'future'"
        ]

    def test_omd_with_last_predictor_parses(self):
        spec = parse_config(with_learner("algorithm = omd", "eta = 0.3",
                                         "regularizer = euclidean",
                                         "predictor = last"))
        assert spec.learner == LearnerSpec("omd", 0.3, "euclidean", "last")

    def test_baseline_errors_use_the_baseline_name(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[baseline]",            # 7
                     "algorithm = hedge",
                     "eta = -2",              # 9
                     *RUN_10)
        assert errors_of(text) == [
            "line 9: baseline.eta must be > 0.0, got -2.0"
        ]


# ---------------------------------------------------------------------------
# per-player overrides


class TestOverrides:
    def test_override_parses_and_specs_for_merges(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[learner.1]", "algorithm = optimistic_hedge",
                     "eta = 0.3",
                     *RUN_10)
        spec = parse_config(text)
        assert spec.overrides == {1: LearnerSpec("optimistic_hedge", 0.3)}
        assert spec.specs_for(2) == [LearnerSpec("hedge", 0.1),
                                     LearnerSpec("optimistic_hedge", 0.3)]

    def test_override_index_out_of_range(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[learner.5]",          # 7
                     "algorithm = hedge", "eta = 0.2",
                     *RUN_10)
        assert errors_of(text) == [
            "line 7: [learner.5] refers to player 5 but the game has 2 players"
        ]

    def test_override_errors_use_the_override_name(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[learner.0]",
                     "algorithm = hedge",
                     "eta = bad",             # 9
                     *RUN_10)
        assert errors_of(text) == [
            "line 9: learner.0.eta must be a number, got 'bad'"
        ]

    def test_second_override_of_the_same_player_is_an_error(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[learner.1]", "algorithm = hedge", "eta = 0.2",
                     "[learner.01]",          # 10
                     "algorithm = hedge", "eta = 0.3",
                     *RUN_10)
        assert errors_of(text) == [
            "line 10: [learner.01] overrides player 1 again; [learner.1] already does"
        ]


# ---------------------------------------------------------------------------
# [run], [robust], [outputs]


class TestRunSection:
    def test_defaults(self):
        spec = parse_config(GOOD)
        assert (spec.T, spec.mode) == (10, "utility")
        assert not hasattr(spec, "seed")
        assert spec.baseline is None
        assert spec.robust is None
        assert spec.outputs == {}
        assert spec.smoothness is None

    def test_run_values_parse(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[run]", "T = 250", "mode = cost")
        spec = parse_config(text)
        assert (spec.T, spec.mode) == (250, "cost")

    def test_T_is_required(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[run]")                # 7
        assert errors_of(text) == [
            "line 7: [run] is missing required key run.T"
        ]

    def test_T_must_be_an_integer(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[run]", "T = 2.5")     # 8
        assert errors_of(text) == [
            "line 8: run.T must be an integer, got '2.5'"
        ]

    def test_seed_is_an_unknown_key(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     "[run]", "T = 10", "seed = 3")  # 9
        assert errors_of(text) == ["line 9: unknown key run.seed"]


class TestRobustSection:
    def optimistic(self, *extra):
        return lines(*MATRIX_GAME,
                     "[learner]", "algorithm = optimistic_hedge", "eta = 0.1",
                     *RUN_10, *extra)

    def test_robust_is_the_wrappers_eta_star(self):
        spec = parse_config(self.optimistic("[robust]", "eta_star = 0.5"))
        assert spec.robust == 0.5

    def test_alpha_is_an_unknown_key(self):
        # a wrapper's alpha is its learner family's constant, not a setting
        errs = errors_of(self.optimistic("[robust]", "eta_star = 0.5", "alpha = 2"))  # 11
        assert errs == ["line 11: unknown key robust.alpha"]

    def test_eta_star_required(self):
        errs = errors_of(self.optimistic("[robust]"))  # line 9
        assert errs == [
            "line 9: [robust] is missing required key robust.eta_star"
        ]

    def test_eta_star_positive(self):
        errs = errors_of(self.optimistic("[robust]", "eta_star = 0"))  # 10
        assert errs == ["line 10: robust.eta_star must be > 0.0, got 0.0"]

    def test_robust_needs_a_learner_with_declared_constants(self):
        text = lines(*MATRIX_GAME,
                     "[learner]", "algorithm = hedge", "eta = 0.1",
                     *RUN_10,
                     "[robust]",             # 9
                     "eta_star = 0.5")
        assert errors_of(text) == [
            "line 9: [robust] algorithm 'hedge' with predictor 'none' declares no "
            "variation bound to wrap"
        ]

    @pytest.mark.parametrize("rows", [
        ("algorithm = optimistic_hedge", "eta = 0.1"),
        ("algorithm = oftrl", "eta = 0.1", "predictor = last"),
        ("algorithm = oftrl", "eta = 0.1", "predictor = window",
         "predictor_param = 4"),
        ("algorithm = oftrl", "eta = 0.1", "predictor = geometric",
         "predictor_param = 0.5"),
        ("algorithm = omd", "eta = 0.1", "predictor = last"),
    ])
    def test_robust_accepts_optimistic_families(self, rows):
        text = lines(*MATRIX_GAME, "[learner]", *rows, *RUN_10,
                     "[robust]", "eta_star = 0.5")
        assert parse_config(text).robust == 0.5

    def test_outputs_dir(self):
        spec = parse_config(self.optimistic("[outputs]", "dir = somewhere"))
        assert spec.outputs == {"dir": "somewhere"}

    def test_outputs_unknown_key(self):
        errs = errors_of(self.optimistic("[outputs]",
                                         "format = png"))  # line 10
        assert errs == ["line 10: unknown key outputs.format"]


# ---------------------------------------------------------------------------
# network-game restrictions


NETWORK_GAME = ("[game]", "type = network", "path = net.txt")


class TestNetworkGames:
    def test_eta_is_optional_so_the_runner_can_tune_it(self):
        text = lines(*NETWORK_GAME,
                     "[learner]", "algorithm = oftrl", "predictor = last",
                     *RUN_10)
        spec = parse_config(text)
        assert spec.learner == LearnerSpec("oftrl", None, "entropy", "last")

    def test_explicit_eta_is_kept(self):
        text = lines(*NETWORK_GAME,
                     "[learner]", "algorithm = optimistic_hedge", "eta = 0.05",
                     *RUN_10)
        assert parse_config(text).learner == LearnerSpec("optimistic_hedge",
                                                         0.05)

    @pytest.mark.parametrize("rows", [
        ("algorithm = hedge", "eta = 0.1"),
        ("algorithm = oftrl", "eta = 0.1"),
        ("algorithm = oftrl", "eta = 0.1", "regularizer = euclidean",
         "predictor = last"),
        ("algorithm = bestresponse",),
    ])
    def test_dynamics_must_be_optimistic_entropy(self, rows):
        text = lines(*NETWORK_GAME, "[learner]", *rows, *RUN_10)
        assert errors_of(text) == [
            "line 4: network games run the optimistic entropy dynamics; use "
            "algorithm oftrl with predictor last (or optimistic_hedge)"
        ]

    def test_every_unsupported_feature_is_reported(self):
        text = lines(
            "[game]",                        # 1
            "type = network",
            "path = net.txt",
            "lambda = 1",
            "mu = 0.5",
            "[learner]",                     # 6
            "algorithm = hedge",
            "eta = 0.1",
            "[learner.0]",                   # 9
            "algorithm = optimistic_hedge",
            "eta = 0.1",
            "[baseline]",                    # 12
            "algorithm = hedge",
            "eta = 0.1",
            "[robust]",                      # 15
            "eta_star = 0.5",
            "[run]",                         # 17
            "T = 10",
            "mode = cost",
        )
        assert errors_of(text) == [
            "line 6: network games run the optimistic entropy dynamics; use "
            "algorithm oftrl with predictor last (or optimistic_hedge)",
            "line 12: [baseline] is not supported for network games",
            "line 15: [robust] is not supported for network games",
            "line 9: per-player overrides are not supported for network games",
            "line 17: network games have built-in congestion costs; use "
            "mode = utility",
            "line 1: smoothness claims are not supported for network games",
        ]


# ---------------------------------------------------------------------------
# the shipped configs


def load(name: str) -> str:
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestShippedConfigs:
    def test_auction_fig1(self):
        spec = parse_config(load("auction_fig1.cfg"))
        assert spec.game == {"type": "auction", "bidders": 4, "items": 4,
                             "value": 20.0,
                             "bids": [float(b) for b in range(1, 21)],
                             "value_mask_seed": None}
        assert spec.learner == LearnerSpec("optimistic_hedge", 0.1)
        assert spec.baseline == LearnerSpec("hedge", 0.1)
        assert (spec.T, spec.mode) == (2000, "utility")
        assert spec.outputs == {"dir": "auction_fig1"}
        assert spec.overrides == {} and spec.robust is None
        assert spec.smoothness is None

    def test_cost_congestion(self):
        spec = parse_config(load("cost_congestion.cfg"))
        assert spec.game == {"type": "matrix",
                             "matrix": [[0.5, 0.5], [0.5, 0.5]]}
        assert spec.smoothness == {"lambda": 1.0, "mu": 0.5, "s_star": [0, 0]}
        assert spec.learner == LearnerSpec("first_order_hedge")
        assert (spec.T, spec.mode) == (500, "cost")
        assert spec.outputs == {"dir": "cost_congestion"}

    def test_matrix_smooth(self):
        spec = parse_config(load("matrix_smooth.cfg"))
        assert spec.game == {"type": "matrix",
                             "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        assert spec.smoothness == {"lambda": 1.0, "mu": 1.0, "s_star": [0, 0]}
        assert spec.learner == LearnerSpec("optimistic_hedge", 0.25)
        assert spec.baseline == LearnerSpec("hedge", 0.25)
        assert (spec.T, spec.mode) == (400, "utility")
        assert spec.outputs == {"dir": "matrix_smooth"}

    def test_routing(self):
        spec = parse_config(load("routing.cfg"))
        assert spec.game == {"type": "network", "path": "network_parallel.txt"}
        assert spec.learner == LearnerSpec("oftrl", None, "entropy", "last")
        assert spec.T == 1000
        assert spec.outputs == {"dir": "routing"}
