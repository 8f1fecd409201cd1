"""Test-side fixtures: a shuffle-partition-lowered view of the session
SparkSession (tiny unit-test graphs don't need 64-way shuffles), plus
shared tiny graphs."""
import pytest

from .graph_catalog import SMALL_GRAPHS, random_graph  # noqa: F401


@pytest.fixture(scope="session")
def sparkf(spark):
    """Session SparkSession with 8 shuffle partitions for unit tests."""
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    return spark
