import pytest

from secondlook import InformationStructure, PayoffStructure


@pytest.fixture
def info():
    return InformationStructure(0.6, 0.8)


@pytest.fixture
def payoffs():
    return PayoffStructure(1.0, 0.0)
