"""Package metadata (``src`` layout; there is no ``pyproject.toml``)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",  # repro.__version__; tests/test_cli.py checks they agree
    description="Join-project query evaluation using matrix multiplication",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-cli = repro.cli:main"]},
)
