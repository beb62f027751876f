"""Shared test configuration.

pytest puts this directory on ``sys.path`` (it holds a ``conftest.py`` and
no ``__init__.py``), so every test module can import the shared helpers
under ``tests/reference/``: ``reference.stub_device`` (crash states of
hand-built histories), ``reference.persistence_model`` (the permitted
durable sets of each barrier mode) and ``reference.builders`` (hand-built
block requests and device commands).
"""
