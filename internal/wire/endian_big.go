//go:build armbe || arm64be || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || sparc || sparc64

package wire

// hostLittleEndian reports that this architecture's byte order differs
// from the wire's, so bulk payloads are converted element by element.
const hostLittleEndian = false
