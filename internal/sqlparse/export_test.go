package sqlparse

// RandQuery lends the property tests' query generator to the external test
// package, which plans what it parses.
var RandQuery = randQuery
