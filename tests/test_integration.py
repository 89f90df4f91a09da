"""Integration tests: full pipelines across subsystem boundaries."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.problem import ProblemInstance
from repro.core.semilattice import ClusterPool
from repro.core.solution import check_feasibility
from repro.datasets.movielens import EXAMPLE_QUERY, MovieLensConfig, build_database
from repro.datasets.tpcds import TpcdsConfig, generate_store_sales
from repro.interactive import ExplorationSession
from repro.query.aggregate import AggregateQuery, run_aggregate
from repro.query.sql import execute_sql
from repro.userstudy import run_study
from tests.conftest import needs_viz


@pytest.fixture(scope="module")
def movielens_db():
    return build_database(
        MovieLensConfig(n_users=250, n_movies=300, n_ratings=15_000, seed=9)
    )


class TestMovieLensPipeline:
    def test_sql_to_clusters_end_to_end(self, movielens_db):
        result = execute_sql(
            "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
            "FROM RatingTable WHERE genres_adventure = 1 "
            "GROUP BY hdec, agegrp, gender, occupation "
            "HAVING count(*) > 10 ORDER BY val DESC",
            movielens_db,
        )
        answers = result.to_answer_set()
        assert answers.n >= 10
        L = min(8, answers.n)
        solution = ProblemInstance(answers, k=4, L=L, D=2).solve()
        assert not check_feasibility(solution, answers, 4, L, 2)
        # Decoded clusters speak the raw vocabulary.
        decoded = answers.decode(solution.clusters[0].pattern)
        assert len(decoded) == 4

    @needs_viz
    def test_query_then_explore_then_compare(self, movielens_db):
        from repro.viz.comparison import build_comparison

        result = execute_sql(
            "SELECT hdec, agegrp, gender, avg(rating) AS val "
            "FROM RatingTable GROUP BY hdec, agegrp, gender "
            "HAVING count(*) > 30 ORDER BY val DESC",
            movielens_db,
        )
        answers = result.to_answer_set()
        session = ExplorationSession(answers)
        L = min(10, answers.n)
        old = session.solve(k=5, L=L, D=1).solution
        new = session.solve(k=3, L=L, D=1).solution
        view = build_comparison(old, new, answers, L=L)
        assert view.matched_distance <= view.default_distance
        covered_old = {i for b in view.bands for i in (b.old_index,)}
        assert covered_old <= set(range(old.size))

    def test_precompute_consistency_with_store(self, movielens_db):
        result = execute_sql(
            "SELECT hdec, gender, occupation, avg(rating) AS val "
            "FROM RatingTable GROUP BY hdec, gender, occupation "
            "HAVING count(*) > 20 ORDER BY val DESC",
            movielens_db,
        )
        answers = result.to_answer_set()
        session = ExplorationSession(answers)
        L = min(12, answers.n)
        store = session.precompute(L, (2, 8), [1, 2])
        for k in (2, 5, 8):
            for D in (1, 2):
                solution = store.retrieve(k, D)
                assert not check_feasibility(solution, answers, k, L, D)


class TestTpcdsPipeline:
    def test_store_sales_to_summary(self):
        relation = generate_store_sales(TpcdsConfig(n_rows=20_000, seed=4))
        query = AggregateQuery(
            group_by=("ss_store_sk", "ss_promo_sk", "ss_quantity"),
            aggregate="avg",
            target="ss_net_profit",
            having_count_gt=3,
        )
        answers = run_aggregate(relation, query).to_answer_set()
        assert answers.n > 100
        solution = ProblemInstance(answers, k=10, L=50, D=1).solve()
        assert not check_feasibility(solution, answers, 10, 50, 1)
        assert solution.avg >= answers.avg_all()


class TestStudyPipeline:
    def test_study_on_real_query_output(self, movielens_db):
        result = execute_sql(
            "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
            "FROM RatingTable GROUP BY hdec, agegrp, gender, occupation "
            "HAVING count(*) > 5 ORDER BY val DESC",
            movielens_db,
        )
        answers = result.to_answer_set()
        assert answers.n > 100
        study = run_study(answers, n_subjects=4, seed=7)
        for group in study.groups():
            for arm in (group.left, group.right):
                assert set(arm.sections) == {
                    "patterns-only", "memory-only", "patterns+members"
                }

    def test_example_query_constant_parses(self, movielens_db):
        result = execute_sql(EXAMPLE_QUERY, movielens_db)
        assert result.attributes == ("hdec", "agegrp", "gender", "occupation")


class TestLazyStrategyEndToEnd:
    def test_lazy_pool_supports_full_pipeline(self, movielens_db):
        """The eager mapping derives each mask on first read (it was also
        named ``"lazy"`` before 5.0.0, a name the pool now rejects): it
        runs the pipeline to the naive mapping's answer."""
        result = execute_sql(
            "SELECT hdec, agegrp, gender, avg(rating) AS val "
            "FROM RatingTable GROUP BY hdec, agegrp, gender "
            "HAVING count(*) > 30 ORDER BY val DESC",
            movielens_db,
        )
        answers = result.to_answer_set()
        L = min(10, answers.n)
        eager = ClusterPool(answers, L=L, strategy="eager")
        naive = ClusterPool(answers, L=L, strategy="naive")
        from repro.core.hybrid import hybrid

        assert hybrid(eager, 4, 2).patterns() == hybrid(naive, 4, 2).patterns()
        with pytest.raises(InvalidParameterError, match="unknown mapping"):
            ClusterPool(answers, L=L, strategy="lazy")
