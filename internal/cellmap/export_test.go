package cellmap

// The canonical parsers, for the tests in package cellmap_test, which
// build maps through mapbuild and so cannot live in this package.
var (
	ParseLookupResponse = parseLookupResponse
	ParseBatchResponse  = parseBatchResponse
	ParseBatchRequest   = parseBatchRequest
)
