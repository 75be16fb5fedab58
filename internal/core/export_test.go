package core

// ScatterSerial exposes the single-threaded scatter kernel to the external
// test package, which can import the algorithms it is checked with.
var ScatterSerial = scatterSerial
