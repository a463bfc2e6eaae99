import pytest

from sl2cert import chartab, groups, orbit_graph


@pytest.fixture(scope="session")
def sl13():
    return groups.enumerate_group(13, "SL")


@pytest.fixture(scope="session")
def subgroups13(sl13):
    return groups.all_standard_subgroups(sl13)


@pytest.fixture(scope="session")
def table13():
    return chartab.CharacterTable(13)


@pytest.fixture(scope="session")
def graph13():
    return orbit_graph.build_graph(13, "13mod24")
