package server

// RunOrSubmit exposes Pool.runOrSubmit, the connection reader's entry
// point, to the external tests.
var RunOrSubmit = (*Pool).runOrSubmit
