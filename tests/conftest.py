import socket

import pytest
from hypothesis import settings

from evalkit.catalog import load_catalog

# Property tests draw the same examples on every run and have no deadline:
# timings on a shared, loaded host must not fail a correct example.
settings.register_profile("evalkit", derandomize=True, deadline=None)
settings.load_profile("evalkit")


@pytest.fixture(autouse=True, scope="session")
def no_network():
    """The whole suite must run without network access."""
    original = socket.socket.connect

    def blocked(self, *args, **kwargs):
        raise OSError("network access is disabled in the test suite")

    socket.socket.connect = blocked
    try:
        yield
    finally:
        socket.socket.connect = original


MOVIES = [
    {
        "title": "Midnight Run",
        "genre": ["action", "comedy"],
        "year": "1988",
        "actor": ["Robert De Niro", "Charles Grodin"],
        "director": "Martin Brest",
        "plot": "a bounty hunter escorts an accountant cross-country",
        "rating": "7.5",
    },
    {
        "title": "Paper Moon",
        "genre": ["comedy", "drama"],
        "year": "1973",
        "actor": ["Ryan O'Neal", "Tatum O'Neal"],
        "director": "Peter Bogdanovich",
        "plot": "a con man teams up with a sharp-tongued girl",
        "rating": "8.1",
    },
    {
        "title": "The Conversation",
        "genre": ["thriller"],
        "year": "1974",
        "actor": ["Gene Hackman"],
        "director": "Francis Ford Coppola",
        "plot": "a surveillance expert faces a moral dilemma",
        "rating": "7.8",
    },
]


@pytest.fixture(scope="session")
def movie_catalog():
    return load_catalog(MOVIES)
