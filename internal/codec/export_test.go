package codec

// IdentOK exposes the writer's bare-identifier rule to the fuzz tests.
var IdentOK = identOK
