"""Independent implementations that the tests check the library against."""
